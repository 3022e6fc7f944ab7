"""Command-line front end: curvature tables, torus spectra, reference
comparisons, magic aspect ratios, and operator self-checks.

Exit codes: 0 success, 1 domain or parameter error, 2 usage error.
Data goes to standard output (or --output), diagnostics to standard error.
Numeric flags accept exact fractions ("--alpha 1/3").
"""

import argparse
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

# One BLAS thread: a process of this CLI solves blocks of a few dozen rows, where
# OpenBLAS's second thread costs CPU and saves no time.  Left alone where numpy is
# loaded already or the environment names a thread count.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import geometry, operators, torus
from .shapes import parse_shape

_DEFAULT_DIGITS = 4


class UsageError(Exception):
    pass


def _fraction(text):
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a finite number or fraction: {text!r}") from None


def _fraction_text(text):
    """A flag value that _fraction accepts, kept as typed."""
    _fraction(text)
    return text


def _round(x, digits):
    """x to `digits` decimals: the value of its table cell, so never -0.0."""
    return float(_cell(float(x), digits))


def _round_nonzero(x, digits):
    """x to `digits` decimals, or to `digits` significant digits (at least one) where those give 0 for x != 0."""
    r = _round(x, digits)
    return float(f"{float(x):.{max(digits, 1) - 1}e}") if r == 0.0 and x != 0.0 else r


def _sig(x):
    """Residual-style value kept in scientific precision regardless of --digits."""
    return float(f"{float(x):.6e}")


def emit(payload, fmt, digits=_DEFAULT_DIGITS):
    """Serialize a payload deterministically.

    JSON payloads are dicts (insertion order preserved); CSV and table
    payloads are (header, rows) pairs with a fixed column order.  The same
    payload always yields byte-identical text.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt not in ("csv", "table"):
        raise UsageError(f"unknown format {fmt!r}")
    header, rows = payload
    cells = [list(header)] + [[_cell(v, digits) for v in row] for row in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in cells) + "\n"
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


def _cell(value, digits):
    if isinstance(value, float):
        text = f"{value:.{digits}f}"
        return text[1:] if text.startswith("-") and float(text) == 0.0 else text
    return str(value)


# -- subcommands ---------------------------------------------------------------

def _cmd_curvature(ns):
    digits, wmin, wmax = ns.digits, ns.wmin, ns.wmax
    if ns.torus is not None:
        big, small = ns.torus
        patch = geometry.torus_metric_patch(big, small)
        if wmin is None and wmax is None:
            grid = np.linspace(0.0, 2.0 * math.pi, ns.points, endpoint=False)
        elif wmin is None or wmax is None:
            raise UsageError("give both --wmin and --wmax, or neither")
        else:
            grid = np.linspace(wmin, wmax, ns.points)
    else:
        if ns.shape is not None:
            src = ns.shape
        else:
            with open(ns.shape_file, encoding="utf-8") as fh:
                src = fh.read().strip()
        expr = parse_shape(src)
        print(f"shape: {expr}", file=sys.stderr)
        if wmin is None or wmax is None:
            raise UsageError("--wmin and --wmax are required for a shape-function surface")
        patch = geometry.graph_metric_patch(expr, (wmin, wmax))
        grid = np.linspace(wmin, wmax, ns.points)

    header = ["w", "Z", "k1", "k2", "h", "k", "V_C", "F"]
    s = geometry.curvature_sample(patch, grid, ns.q)
    rows = np.column_stack([s.w, s.z, s.k1, s.k2, s.h, s.k, s.vc, s.f]).tolist()
    if ns.format == "json":
        payload = {
            "q": _round_nonzero(ns.q, digits),
            "samples": [
                {key: _round(val, digits) for key, val in zip(header, row)} for row in rows
            ],
        }
        return emit(payload, "json", digits)
    return emit((header, rows), ns.format, digits)


def _cmd_spectrum(ns):
    digits = ns.digits
    problem = torus.TorusProblem(
        alpha=ns.alpha, nu=ns.nu, formulation=ns.formulation, n_max=ns.nmax, n_quad=ns.nquad
    )
    # the whole spectrum is ordered before the cut, so a degenerate pair at the cut is ordered whole
    entries = sorted(torus.solve_spectrum(problem).entries, key=torus.listing_key)[: ns.states]
    if ns.format == "csv":
        width = max(len(e.coeffs) for e in entries)
        header = ["beta", "parity"] + [f"c{i}" for i in range(width)]
        rows = [[e.beta, e.parity, *e.coeffs] + [0.0] * (width - len(e.coeffs)) for e in entries]
        return emit((header, rows), "csv", digits)
    payload = {
        "alpha": float(f"{problem.alpha:.12g}"),
        "nu": problem.nu,
        "formulation": problem.formulation,
        "n_max": problem.n_max,
        "n_quad": problem.n_quad,
        "states": [
            {
                "beta": _round(e.beta, digits),
                "parity": e.parity,
                "coeffs": [_round(c, digits) for c in e.coeffs],
            }
            for e in entries
        ],
    }
    return emit(payload, "json", digits)


def _cmd_compare(ns):
    digits = ns.digits
    alpha = _fraction(ns.alpha)
    header = ["beta", "nu", "parity", "basis", "b1", "b2", "b3"]
    blocks = []
    for formulation in torus.FORMULATIONS:
        rows = []
        for st in torus.table_states(alpha, formulation, n_max=ns.nmax, n_quad=ns.nquad):
            lead = [float(c) for c in st.coeffs[:3]]
            lead += [0.0] * (3 - len(lead))
            rows.append([st.beta, st.nu, st.parity, st.basis] + lead)
        blocks.append((formulation, rows))
    if ns.format == "csv":
        flat = [[form] + row for form, rows in blocks for row in rows]
        return emit((["formulation"] + header, flat), "csv", digits)
    # the ratio keeps at least 4 significant digits whatever --digits is
    places = max(digits, 3 - math.floor(math.log10(alpha)))
    out = [f"alpha = {ns.alpha} ({alpha:.{places}f})"]
    for formulation, rows in blocks:
        out.append("")
        out.append(formulation)
        out.append(emit((header, rows), "table", digits).rstrip("\n"))
    return "\n".join(out) + "\n"


def _cmd_magic(ns):
    digits = ns.digits
    payload = {
        "nu": ns.nu,
        "laplacian": _round_nonzero(torus.magic_alpha(ns.nu, "laplacian"), digits),
        "hermitian": _round_nonzero(torus.magic_alpha(ns.nu, "hermitian"), digits),
    }
    return emit(payload, ns.format, digits)


def _polynomial_source(rng):
    c0, c1, c2, c3 = (rng.uniform(-1.0, 1.0) for _ in range(4))
    return f"{c0!r}+{c1!r}*rho+{c2!r}*rho^2+{c3!r}*rho^3"


_SMOOTH_SOURCES = (
    "1.5+0.2*sin(rho)",
    "sqrt(4-rho^2)",
    "exp(0.3*rho)",
    "cosh(rho/2)",
    "ln(1+rho)*0.7",
)


def check_cancellation(samples, seed):
    """Max residual of the curvature-term cancellation over random shapes and points.

    The draws come from the standard library's random.Random(seed), which
    numpy loads anyway: importing numpy.random for them would add its bit
    generators and their imports, about 5 MB, to the peak RSS of `check`.
    """
    rng = random.Random(seed)
    worst_limit = 0.0
    worst_full = 0.0
    for i in range(samples):
        src = _SMOOTH_SOURCES[i % len(_SMOOTH_SOURCES)] if i % 4 == 0 else _polynomial_source(rng)
        patch = geometry.graph_metric_patch(parse_shape(src), (0.3, 1.7))
        w = rng.uniform(0.4, 1.6)
        sample = geometry.curvature_sample(patch, w)
        worst_limit = max(worst_limit, operators.cancellation_residual(sample.h, sample.k))
        scale = max(abs(sample.k1), abs(sample.k2), 1.0)
        q = rng.uniform(-0.4, 0.4) / scale
        worst_full = max(worst_full, operators.cancellation_residual(sample.h, sample.k, q))
    return worst_limit, worst_full


def selfadjointness_defect(patch, coeffs, grid):
    """max |(c2 W)' - c1 W| over a grid for an operator on `patch`, W = a1 a2.

    c2 W = -a2/(2 a1) for every surface operator, so its derivative and W
    are read exactly off the patch frame.
    """
    fr = patch.frame(grid)
    slope = -0.5 * (fr.d_a2 / fr.a1 - fr.a2 * fr.d_a1 / (fr.a1 * fr.a1))
    return float(np.max(np.abs(slope - coeffs.c1(grid) * (fr.a1 * fr.a2))))


def _cmd_check(ns):
    samples, seed, alpha = ns.samples, ns.seed, ns.alpha
    torus.check_alpha(alpha, "--alpha")

    worst_limit, worst_full = check_cancellation(samples, seed)

    patch = geometry.torus_metric_patch(1.0 / alpha, 1.0)
    p_theta, p_phi, _ = operators.hermitian_momenta(patch)
    trig = [parse_shape(s) for s in ("1", "sin(rho)", "cos(rho)", "sin(2*rho)", "cos(2*rho)")]
    constructed = max(
        operators.hermiticity_residual(p_theta, patch, f, g) for f in trig for g in trig
    )
    azimuthal = operators.hermiticity_residual(p_phi, patch, trig[1], trig[2])
    naive = operators.MomentumOp(patch.label, lambda w: 0.0)
    stripped = operators.hermiticity_residual(naive, patch, trig[0], trig[1])

    graph = geometry.graph_metric_patch(parse_shape("sqrt(4-rho^2)"), (0.2, 1.8))
    grid = np.linspace(0.3, 1.7, 29)
    defects = {
        ordering: _sig(
            selfadjointness_defect(graph, operators.surface_operator(graph, "hermitian", 0, ordering), grid)
        )
        for ordering in operators.ORDERINGS
    }

    payload = {
        "cancellation": {
            "samples": samples,
            "seed": seed,
            "max_limit_residual": _sig(worst_limit),
            "max_full_q_residual": _sig(worst_full),
        },
        "hermiticity": {
            "alpha": alpha,
            "constructed_momentum_max_residual": _sig(constructed),
            "azimuthal_momentum_residual": _sig(azimuthal),
            "naive_momentum_residual": _sig(stripped),
            "ordering_selfadjointness_defect": defects,
        },
    }
    return emit(payload, ns.format)


# -- argument plumbing ----------------------------------------------------------

# least value of each integer setting, from a flag or from --config; the library
# checks --nu, --nmax and --nquad
_LEAST = {"digits": 0, "points": 1, "states": 1, "samples": 1, "seed": 0}


def _integer_error(name, value):
    least = f" of at least {_LEAST[name]}" if name in _LEAST else ""
    return ValueError(f"--{name} must be an integer{least}, got {value!r}")


def _config_settings(sub, path):
    """The values in JSON file `path` of the settings of subcommand parser
    `sub`, each checked by the kind of its flag (exit code 1).

    A setting is an optional flag of one value with a type or choices.  The
    required flags, the surface source, -o and --config come from the command
    line only, so those keys, like unknown ones, are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {type(cfg).__name__}")
    checked = {}
    for action in sub._actions:
        name = action.dest
        setting = not action.required and action.nargs is None and (action.type or action.choices)
        if not setting or name not in cfg:
            continue
        value = cfg[name]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"--{name} must be one of {', '.join(action.choices)}, got {value!r}")
        if action.type is int and not (number and isinstance(value, int)):
            raise _integer_error(name, value)
        if action.type is _fraction and not (number and math.isfinite(value)):
            raise ValueError(f"--{name} must be a number, got {value!r}")
        checked[name] = value
    return checked


def _add_common(sub, formats, digits=True, format_help=None):
    """--format (default: the first of `formats`), --digits unless the output
    ignores it, -o and --config."""
    sub.add_argument("--format", choices=formats, default=formats[0], help=format_help)
    if digits:
        sub.add_argument("--digits", type=int, default=_DEFAULT_DIGITS)
    sub.add_argument("-o", "--output", default=None)
    sub.add_argument("--config", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvedq",
        description="Curvature potentials, Hermitian momenta and toroidal spectra "
        "for a particle confined to a surface of revolution.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    n_max, nquad_help = torus.TorusProblem.n_max, f"default max({torus.N_QUAD_FLOOR}, 4*nmax + 8)"

    cur = subs.add_parser("curvature", help="curvature and V_C samples on a grid (CSV)")
    cur.set_defaults(handler=_cmd_curvature)
    src = cur.add_mutually_exclusive_group(required=True)
    src.add_argument("--shape", default=None, help="shape function S(rho), e.g. 'sqrt(4-rho^2)'")
    src.add_argument("--shape-file", default=None, help="file containing the shape function")
    src.add_argument("--torus", nargs=2, type=_fraction, metavar=("R", "A"), default=None)
    cur.add_argument("--wmin", type=_fraction, default=None)
    cur.add_argument("--wmax", type=_fraction, default=None)
    cur.add_argument("--points", type=int, default=100)
    cur.add_argument("--q", type=_fraction, default=0.0, help="normal offset (default 0)")
    _add_common(cur, ("csv", "json", "table"))

    spec = subs.add_parser("spectrum", help="torus eigenvalues and wave functions")
    spec.set_defaults(handler=_cmd_spectrum)
    spec.add_argument("--alpha", type=_fraction, required=True)
    spec.add_argument("--nu", type=int, default=0)
    spec.add_argument("--formulation", choices=torus.FORMULATIONS, default=torus.FORMULATIONS[0])
    spec.add_argument("--nmax", type=int, default=n_max)
    spec.add_argument("--nquad", type=int, default=None, help=nquad_help)
    spec.add_argument("--states", type=int, default=8)
    _add_common(
        spec,
        ("json", "csv"),
        format_help="csv has columns beta,parity,c0..c{nmax} for both parities: an odd state's c{i} is "
        "its sin((i+1) theta) coefficient, and its last cell is padding, printed as 0",
    )

    cmp_ = subs.add_parser("compare", help="three lowest states per formulation")
    cmp_.set_defaults(handler=_cmd_compare)
    cmp_.add_argument(
        "--alpha", type=_fraction_text, required=True, help="aspect ratio a/R, fraction or decimal"
    )
    cmp_.add_argument("--nmax", type=int, default=n_max)
    cmp_.add_argument("--nquad", type=int, default=None, help=nquad_help)
    _add_common(cmp_, ("table", "csv"))

    mag = subs.add_parser("magic", help="aspect ratios cancelling the azimuthal term")
    mag.set_defaults(handler=_cmd_magic)
    mag.add_argument("--nu", type=int, required=True)
    _add_common(mag, ("json",))

    chk = subs.add_parser("check", help="cancellation and Hermiticity residuals")
    chk.set_defaults(handler=_cmd_check)
    chk.add_argument("--alpha", type=_fraction, default=0.5)
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--seed", type=int, default=7)
    _add_common(chk, ("json",), digits=False)

    for p in (parser, *subs.choices.values()):  # a minus then a digit or .digit is a value: -1e-3, -1/1000
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        if ns.config:
            # config values become the subcommand's defaults, so explicit flags still win
            sub = parser._subparsers._group_actions[0].choices[ns.command]
            sub.set_defaults(**_config_settings(sub, ns.config))
            ns = parser.parse_args(argv)
        for name, least in _LEAST.items():
            value = getattr(ns, name, least)
            if value < least:
                raise _integer_error(name, value)
        text = ns.handler(ns)
        if ns.output:
            with open(ns.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not ns.output:
        sys.stdout.write(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
