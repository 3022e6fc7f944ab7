"""The three benchmark workloads: seeded op decks, the ops, and their checks.

Every workload draws its inputs from a deck built from the seed alone.  Decks
are stratified: each block of ops holds a fixed mix of sizes and kinds, in a
seeded order and with seeded parameters, so that two seeds load the program
the same way and only the inputs differ.

An op returns its outputs; `check` returns a list of failure messages (empty
when correct) and `digest_items` the rounded outputs that enter the run's
results digest.  The library is reached through module attributes at call
time, so wrappers installed by the tracer see every call.
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from curvedq import geometry, operators, shapes, torus

# A spectral tail (largest of the last 3 coefficients of the lowest 3
# states) above this means the basis did not resolve the state.  Over the
# torus-sweep input range the seed reaches 8e-3 (alpha 0.95, nu 3, n_max 24);
# results broken the way ROADMAP item 5 describes (alpha -> 1) reach 0.4.
TAIL_TOL = 2e-2


def _cycle(rng, items):
    """Endless passes over items, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _alphas(rng):
    """Stratified alphas in [0.05, 0.95]: one per tenth of the range per pass."""
    for stratum in _cycle(rng, range(10)):
        yield 0.05 + 0.09 * (stratum + rng.random())


def overlap_oracle(alpha, parity, size):
    """Closed-form overlap int phi_m phi_n (1 + alpha cos) dtheta (tridiagonal)."""
    s = math.pi * np.eye(size)
    if parity == "even":
        s[0, 0] = 2.0 * math.pi
    off = np.full(size - 1, 0.5 * math.pi * alpha)
    if parity == "even" and size > 1:
        off[0] = math.pi * alpha
    return s + np.diag(off, 1) + np.diag(off, -1)


# -- torus-sweep -----------------------------------------------------------------

MAGIC = (("laplacian", 1), ("laplacian", 2), ("hermitian", 1), ("hermitian", 2))
# Per block of 10 ops: 6 general and 1 magic-ratio solve at n_max 24, 2 at 48, 1 at 96.
TORUS_BLOCK = (24,) * 6 + ("magic", 48, 48, 96)
N_QUAD = {24: 128, 48: 256, 96: 512}


class TorusSweep:
    name = "torus-sweep"
    digest_ops = 20
    block_ops = len(TORUS_BLOCK)

    def __init__(self, seed):
        self.rng = random.Random(f"torus-sweep:{seed}")
        combos = [(f, nu) for f in torus.FORMULATIONS for nu in range(4)]
        self._combos = {n: _cycle(self.rng, combos) for n in N_QUAD}
        self._alpha = {n: _alphas(self.rng) for n in N_QUAD}
        self._magic = _cycle(self.rng, MAGIC)
        self._block = []

    def next_spec(self):
        if not self._block:
            self._block = list(TORUS_BLOCK)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "magic":
            formulation, nu = next(self._magic)
            return (torus.magic_alpha(nu, formulation), nu, formulation, 24)
        formulation, nu = next(self._combos[kind])
        return (next(self._alpha[kind]), nu, formulation, kind)

    def run(self, spec):
        alpha, nu, formulation, n_max = spec
        return torus.solve_spectrum(torus.TorusProblem(alpha, nu, formulation, n_max, N_QUAD[n_max]))

    def check(self, spec, result):
        alpha, nu, formulation, n_max = spec
        entries = result.entries
        fails = []
        if len(entries) != 2 * n_max + 1:
            fails.append(f"{len(entries)} states, expected {2 * n_max + 1}")
        betas = np.array([e.beta for e in entries])
        if np.any(np.diff(betas) < 0.0):
            fails.append("eigenvalues not ascending")
        overlap = {p: overlap_oracle(alpha, p, n_max + (p == "even")) for p in torus.PARITIES}
        norm = max(abs(float(e.coeffs @ overlap[e.parity] @ e.coeffs) - 1.0) for e in entries)
        if norm > 1e-9:
            fails.append(f"S-normalisation off by {norm:.2e}")
        tail = max(float(np.max(np.abs(e.coeffs[-3:]))) for e in entries[:3])
        if tail > TAIL_TOL:
            fails.append(f"spectral tail {tail:.2e} above {TAIL_TOL:.0e}")
        if formulation == "hermitian" and nu == 0:
            # Free ring: beta_j = ceil(j/2)^2, approached from above (Rayleigh-Ritz);
            # 1e-8 wherever the basis resolves the states, the tail otherwise.
            ref = np.array([math.ceil(j / 2) ** 2 for j in range(6)], dtype=float)
            err = betas[:6] - ref
            if err.min() < -1e-9 or err.max() > max(1e-8, tail):
                fails.append(f"free-ring ladder off by {np.abs(err).max():.2e}")
        if nu >= 1 and alpha == torus.magic_alpha(nu, formulation):
            exact = 0.0 if formulation == "laplacian" else 0.25
            if abs(betas[0] - exact) > 1e-9:
                fails.append(f"magic-ratio ground beta {betas[0]!r}, expected {exact}")
        return fails

    def digest_items(self, spec, result):
        low = result.entries[:3]
        return [round(e.beta, 6) for e in low] + [round(float(c), 6) for e in low for c in e.coeffs[:3]]


# -- graph-fields ----------------------------------------------------------------

GRID_SIZES = (200, 360, 520, 680, 840, 1000)
FAMILIES = ("sqrt", "trig", "exp", "cosh", "ln", "cubic")
OPERATORS = (("laplacian", "sandwich"), ("hermitian", "left"), ("hermitian", "sandwich"))


def _shape(family, rng):
    """(source, rho domain, extra) for a seeded shape of one family."""
    u = rng.uniform
    domain = (u(0.1, 0.4), u(1.6, 2.0))
    if family == "sqrt":
        radius = u(2.0, 3.0)
        return f"sqrt({radius * radius!r}-rho^2)", (0.0, 0.9 * radius), radius
    if family == "trig":
        return f"{u(1.0, 2.0)!r}+{u(0.1, 0.5)!r}*sin({u(0.5, 2.0)!r}*rho)", domain, None
    if family == "exp":
        return f"{u(0.5, 1.5)!r}*exp({u(0.1, 0.6)!r}*rho)", domain, None
    if family == "cosh":
        return f"{u(0.5, 1.5)!r}*cosh(rho/{u(1.0, 3.0)!r})", domain, None
    if family == "ln":
        return f"{u(0.3, 1.0)!r}*ln({u(0.5, 2.0)!r}+rho)", domain, None
    coeffs = [u(-1.0, 1.0) for _ in range(4)]
    src = f"{coeffs[0]!r}+{coeffs[1]!r}*rho+{coeffs[2]!r}*rho^2+{coeffs[3]!r}*rho^3"
    return src, domain, coeffs


def horner_jet(coeffs, x):
    """S and its first three derivatives of sum c_i x^i by Horner's rule."""
    s, d1, d2, d3 = (np.zeros_like(x) for _ in range(4))
    for c in reversed(coeffs):
        d3 = d3 * x + 3.0 * d2
        d2 = d2 * x + 2.0 * d1
        d1 = d1 * x + s
        s = s * x + c
    return s, d1, d2, d3


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


class GraphFields:
    name = "graph-fields"
    digest_ops = 6
    block_ops = len(FAMILIES)

    def __init__(self, seed):
        self.rng = random.Random(f"graph-fields:{seed}")
        self._families = list(FAMILIES)
        self._sizes = list(GRID_SIZES)
        self.rng.shuffle(self._families)
        self.rng.shuffle(self._sizes)
        self._blocks = 0
        self._block = []

    def next_spec(self):
        if not self._block:
            # Latin square: over 6 blocks each family meets each grid size once.
            shift = self._blocks % len(GRID_SIZES)
            self._block = [
                (fam, self._sizes[(k + shift) % len(GRID_SIZES)]) for k, fam in enumerate(self._families)
            ]
            self.rng.shuffle(self._block)
            self._blocks += 1
        family, points = self._block.pop()
        src, domain, extra = _shape(family, self.rng)
        return (family, src, domain, extra, points, self.rng.randrange(3))

    def run(self, spec):
        _, src, (lo, hi), _, points, nu = spec
        expr = shapes.parse_shape(src)
        patch = geometry.graph_metric_patch(expr, (lo, hi))
        grid = np.linspace(lo, hi, points)
        samples = [geometry.curvature_sample(patch, float(w)) for w in grid]
        cancel = [operators.cancellation_residual(s.h, s.k) for s in samples]
        inner = [float(w) for w in grid if w > 0.0]  # the operators are singular on the axis
        fields = []
        for formulation, ordering in OPERATORS:
            c = operators.surface_operator(patch, formulation, nu, ordering)
            fields.append([(c.c2(w), c.c1(w), c.c0(w)) for w in inner])
        p_w, _, _ = operators.hermitian_momenta(patch)
        f = shapes.parse_shape(f"(rho-{lo!r})*({hi!r}-rho)")
        g = shapes.parse_shape(f"(rho-{lo!r})*({hi!r}-rho)*rho")
        herm = operators.hermiticity_residual(p_w, patch, f, g)
        return samples, cancel, fields, herm

    def check(self, spec, out):
        family, _, _, extra, points, nu = spec
        samples, cancel, fields, herm = out
        fails = []
        table = np.array([[s.w, s.z, s.k1, s.k2, s.h, s.k, s.vc, s.f] for s in samples])
        if len(samples) != points or not np.all(np.isfinite(table)):
            fails.append("curvature samples missing or not finite")
            return fails
        w, z, k1, k2, h, k, vc = table[:, :7].T
        scale = np.maximum(1.0, h * h + np.abs(k))
        if np.max(np.array(cancel) / scale) > 1e-12:
            fails.append(f"cancellation residual {max(cancel):.2e}")
        if np.any(vc > 0.0):
            fails.append("V_C positive")
        on = w > 0.0
        fields = [np.array(c) for c in fields]
        for c in fields:
            if not np.all(np.isfinite(c)):
                fails.append("operator coefficient not finite")
            elif _rel_err(c[:, 0], -0.5 / z[on] ** 2) > 1e-12:
                fails.append("c2 differs from -1/(2 Z^2)")
        if _rel_err(fields[0][:, 2], nu * nu / (2.0 * w[on] ** 2) + vc[on]) > 1e-12:
            fails.append("laplacian c0 differs from nu^2/(2 rho^2) + V_C")
        if not herm <= 1e-10:
            fails.append(f"constructed-momentum Hermiticity residual {herm:.2e}")
        if family == "sqrt":
            if np.max(np.abs(vc)) > 1e-12 / extra**2 or _rel_err(k1 * extra, 1.0) > 1e-9:
                fails.append("hemisphere is not umbilic with k = 1/R")
        if family == "cubic":
            s, s1, s2, s3 = horner_jet(extra, w)
            zz = np.sqrt(1.0 + s1 * s1)
            if _rel_err(z, zz) > 1e-12 or _rel_err(k1, -s2 / zz**3) > 1e-10 or _rel_err(k2, -s1 / (w * zz)) > 1e-10:
                fails.append("cubic curvatures differ from the Horner oracle")
            # Hermitian left-ordered c0 rebuilt from Horner derivatives (uses S''').
            x, s1, s2, s3, zz = w[on], s1[on], s2[on], s3[on], zz[on]
            dz = s1 * s2 / zz
            d2z = (s2 * s2 + s1 * s3) / zz - (s1 * s2) ** 2 / zz**3
            gamma = 0.5 * (dz / zz + 1.0 / x)
            dgamma = 0.5 * (d2z / zz - (dz / zz) ** 2 - 1.0 / x**2)
            c0 = -(dgamma + gamma * gamma) / (2.0 * zz * zz) + nu * nu / (2.0 * x * x)
            if _rel_err(fields[1][:, 2], c0) > 1e-8:
                fails.append("cubic hermitian c0 differs from the Horner oracle")
        return fails

    def digest_items(self, spec, out):
        samples, _, fields, _ = out
        sums = [sum(s.k1 for s in samples), sum(s.k2 for s in samples), sum(s.vc for s in samples)]
        sums += [sum(row[j] for row in c) for c in fields for j in range(3)]
        return [f"{x:.9g}" for x in sums]


# -- cli-mix ---------------------------------------------------------------------

# Per block of 7 processes: compare at each golden alpha, and one of each other subcommand.
CLI_BLOCK = ("compare", "compare", "compare", "check", "magic", "spectrum", "curvature")
GOLDEN = {"1/3": "compare_1_3.txt", "1/2": "compare_1_2.txt", "2/3": "compare_2_3.txt"}


class CliMix:
    name = "cli-mix"
    digest_ops = 7
    block_ops = len(CLI_BLOCK)

    def __init__(self, seed, root, launcher=None, spans_path=None):
        """While `traced` is set, processes run `launcher SPANS_PATH ARGS` instead of -m curvedq.cli."""
        self.rng = random.Random(f"cli-mix:{seed}")
        self.root = root
        golden = pathlib.Path(root, "tests", "golden")
        self.golden = {alpha: (golden / name).read_bytes() for alpha, name in GOLDEN.items()}
        self._compare = _cycle(self.rng, GOLDEN)
        self._block = []
        self.launcher = launcher
        self.spans_path = spans_path
        self.traced = False
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def next_spec(self):
        if not self._block:
            self._block = list(CLI_BLOCK)
            self.rng.shuffle(self._block)
        cmd = self._block.pop()
        rng = self.rng
        if cmd == "compare":
            return ("compare", "--alpha", next(self._compare))
        if cmd == "magic":
            return ("magic", "--nu", str(rng.randint(1, 8)))
        if cmd == "check":
            return ("check", "--seed", str(rng.randrange(10**6)), "--alpha", f"{rng.uniform(0.2, 0.8):.4f}")
        if cmd == "spectrum":
            return (
                "spectrum", "--alpha", f"{rng.uniform(0.05, 0.95):.4f}", "--nu", str(rng.randrange(4)),
                "--formulation", rng.choice(torus.FORMULATIONS),
            )
        points = str(rng.randint(50, 400))
        if rng.random() < 0.5:
            big, small = rng.uniform(2.0, 4.0), rng.uniform(0.5, 1.5)
            return ("curvature", "--torus", f"{big:.4f}", f"{small:.4f}", "--points", points)
        family = rng.choice(FAMILIES)
        src, (lo, hi), _ = _shape(family, rng)
        # `--shape=SRC`: a source with a leading minus sign would otherwise read as an option.
        return ("curvature", f"--shape={src}", "--wmin", f"{lo:.4f}", "--wmax", f"{hi:.4f}", "--points", points)

    def run(self, spec):
        if self.traced:
            argv = [sys.executable, self.launcher, self.spans_path, *spec]
        else:
            argv = [sys.executable, "-m", "curvedq.cli", *spec]
        spawned = time.time()
        proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, spawned, time.time()

    def check(self, spec, out):
        code, stdout, stderr = out[:3]
        if code != 0:
            return [f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}"]
        cmd = spec[0]
        try:
            if cmd == "compare":
                return [] if stdout == self.golden[spec[2]] else ["compare output differs from tests/golden"]
            if cmd == "magic":
                return _check_magic(int(spec[2]), json.loads(stdout))
            if cmd == "check":
                return _check_check(json.loads(stdout))
            if cmd == "spectrum":
                return _check_spectrum(spec, json.loads(stdout))
            return _check_curvature(spec, stdout.decode())
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{cmd} output unreadable: {exc}"]

    def digest_items(self, spec, out):
        return [out[1].decode()]


def _check_magic(nu, payload):
    want = {"nu": nu, "laplacian": round(1.0 / (2 * nu), 4), "hermitian": round(1.0 / math.sqrt(1 + 4 * nu * nu), 4)}
    return [] if payload == want else [f"magic payload {payload} != {want}"]


def _check_check(payload):
    canc, herm = payload["cancellation"], payload["hermiticity"]
    fails = []
    if canc["max_limit_residual"] > 1e-12 or canc["max_full_q_residual"] > 1e-10:
        fails.append(f"cancellation residuals {canc}")
    if herm["constructed_momentum_max_residual"] > 1e-10 or herm["azimuthal_momentum_residual"] > 1e-10:
        fails.append("constructed momenta not Hermitian")
    if not herm["naive_momentum_residual"] > 1.0:
        fails.append("naive momentum reported Hermitian")
    defect = herm["ordering_selfadjointness_defect"]
    if not (defect["sandwich"] < 1e-6 and defect["left"] > 0.1):
        fails.append(f"ordering defects {defect}")
    return fails


def _check_spectrum(spec, payload):
    alpha, nu, formulation = float(spec[2]), int(spec[4]), spec[6]
    states = payload["states"]
    fails = []
    if len(states) != 8 or payload["n_max"] != 24:
        fails.append(f"{len(states)} states at n_max {payload['n_max']}")
    betas = [s["beta"] for s in states]
    if betas != sorted(betas):
        fails.append("eigenvalues not ascending")
    for s in states:
        c = np.array(s["coeffs"])
        norm = float(c @ overlap_oracle(alpha, s["parity"], len(c)) @ c)
        if abs(norm - 1.0) > 5e-3:  # coefficients are printed to 4 decimals
            fails.append(f"S-normalisation {norm:.4f}")
    if formulation == "hermitian" and nu == 0:
        ref = [math.ceil(j / 2) ** 2 for j in range(8)]
        if max(abs(b - r) for b, r in zip(betas, ref)) > 1e-4:
            fails.append(f"free-ring ladder {betas}")
    return fails


def _check_curvature(spec, text):
    lines = text.splitlines()
    if lines[0] != "w,Z,k1,k2,h,k,V_C,F":
        return [f"curvature header {lines[0]!r}"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    points = int(spec[spec.index("--points") + 1])
    if rows.shape != (points, 8) or not np.all(np.isfinite(rows)):
        return [f"curvature table shape {rows.shape}"]
    _, _, k1, k2, h, k, vc, f = rows.T
    fails = []
    if np.any(vc > 0.0) or np.any(f != 1.0):
        fails.append("V_C positive or F != 1 at q = 0")
    if np.max(np.abs(h - 0.5 * (k1 + k2))) > 1.5e-4:  # three values rounded to 4 decimals
        fails.append("h != (k1 + k2)/2")
    if spec[1] == "--torus":
        if np.any(k1 != round(1.0 / float(Fraction(spec[3])), 4)):
            fails.append("torus k1 != 1/a")
    elif spec[1].startswith("--shape=sqrt(") and np.any(vc != 0.0):
        fails.append("hemisphere V_C != 0")
    return fails


WORKLOADS = {w.name: w for w in (TorusSweep, GraphFields, CliMix)}
