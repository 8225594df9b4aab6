"""The three workloads: seeded inputs, the timed pipeline and its checks.

A workload is a sequence of rounds.  A round is one pass over a fixed
input mix, so every round has the same composition and a run always ends
on a round boundary.  Each workload's inputs form a pool of one or two
rounds that the run cycles through.  Inputs are made from the run's seed
(``audit`` and ``cli`` place fixed tensors in seeded orientations); the
library sees nothing but the generated tensors and, for ``cli``, files
holding them.

No timed item may fail.  Inputs through which a known defect of the
library shows are held out of the timed rounds and run once per run as
the workload's defect probe (``Workload.defect_probe``), whose outcome
the report records.  ``KNOWN_DEFECTS`` lists, per workload, the (input
class, failure reason) pairs expected there, with the defect behind
each; a probe failure outside these pairs, or any failed timed item,
marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import numpy as np

import tritensor as tt
from tritensor import cli as tcli

import refs
from spans import Tracer

_EXTREME = (
    "norms 1e-300 and 1e150-1e160: the kernel Gram matrix under- or overflows, so "
    "sigma is 0, wrong or NaN and invariants are 0, inf or NaN instead of an error "
    "(ROADMAP item 4)"
)
_ILL = (
    "1e-10 < sigma_3/sigma_1 < 1e-3: squaring into the kernel loses half the digits, "
    "so sigma_3 and the L-inverse are inaccurate, or sigma_3 is zeroed and a "
    "nonsingular tensor is called singular (ROADMAP item 2)"
)
KNOWN_DEFECTS = {
    "analyze": {
        "extreme": dict.fromkeys(("sigma", "invariants", "invariant_unrepresentable"), _EXTREME),
        "ill_conditioned": dict.fromkeys(("sigma", "rank", "singular_decision", "moore_penrose"), _ILL),
    },
    "audit": {
        "fixture": {
            "missed_maximum": "at 12 restarts every restart of a solver can land on a "
            "lower local maximum, so eta_1, mu_1 or nu_1 drifts although both values are "
            "attained at unit vectors (README: multistart maxima are not certified; "
            "ROADMAP item 5)",
        },
    },
    "cli": {},
}


class SetupClock:
    """Times the steps of repeated set-ups; each step counts at its fastest.

    The host slows this machine down in phases of a few milliseconds, so
    the fastest of several repetitions of a short step is its cost
    without interference.  Work outside any step is not counted.
    """

    def __init__(self) -> None:
        self.best: dict = {}

    @contextlib.contextmanager
    def step(self, key):
        t0 = time.perf_counter_ns()
        yield
        self.add(key, time.perf_counter_ns() - t0)

    def add(self, key, ns: int) -> None:
        self.best[key] = min(self.best.get(key, ns), ns)

    def total_s(self) -> float:
        return sum(self.best.values()) / 1e9


def _seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _symmetrized(g: np.ndarray) -> np.ndarray:
    return sum(np.transpose(g, p) for p in permutations(range(3))) / 6.0


def _with_norm(g: np.ndarray, norm: float) -> np.ndarray:
    return g * (norm / np.linalg.norm(g))


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def _from_singular_values(rng, sigma) -> np.ndarray:
    left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    right = np.linalg.qr(rng.standard_normal((9, 9)))[0][:, :3]
    return (left * np.asarray(sigma, dtype=float)) @ right.T


class Workload:
    """Base class: ``setup`` builds the pool of rounds and their references."""

    name = ""
    pool_rounds = 1  # distinct rounds of inputs; later rounds repeat them
    count_rounds = 1  # traced rounds whose counts feed the count metrics

    def __init__(self, root: Path, out_dir: Path) -> None:
        self.root = root
        self.out_dir = out_dir
        self.rounds: list[list] = []
        self.probe: list = []  # inputs held out of the timed rounds

    def setup(self, seed: int, tracer, clock: SetupClock) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed harness warm-up, once after the repeated set-ups."""

    def round_items(self, r: int) -> list:
        return self.rounds[r % len(self.rounds)]

    def run_item(self, item, tracer):
        raise NotImplementedError

    def check_round(self, items: list, outs: list) -> list:
        """Failure reason (or None) per item; ``outs`` holds results or exceptions."""
        raise NotImplementedError

    def item_class(self, item) -> str:
        """Input class of an item, as used by ``KNOWN_DEFECTS``."""
        return item[0]

    def defect_probe(self) -> list:
        """Run each input of ``self.probe``, the inputs through which a known
        defect shows, once, untimed; (input class, failure reason or None)
        per input."""
        outs = []
        for item in self.probe:
            try:
                outs.append(self.run_item(item, _UNTRACED))
            except Exception as exc:  # an input that raises is a failed input
                outs.append(exc)
        reasons = self.check_round(self.probe, outs)
        return [(self.item_class(item), r) for item, r in zip(self.probe, reasons)]

    def parts(self, out, laps: list) -> tuple[list, dict]:
        """Split an item's per-call durations (ns) into finer parts, untimed:
        its own parts, and parts keyed by what they do that other inputs
        repeat with the same work (see ``Tally`` in run.py)."""
        return laps, {}

    def after_round(self, items: list, tracer) -> None:
        """Untimed extra measurements of a traced round."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# analyze: the closed-form pipeline on one tensor per item

# sigma_3/sigma_1 of the timed condition sweep, outside _ILL_RANGE
_RATIOS = (1e-2, 1e-12)
# the defect probe's inputs, per block: the sweep inside _ILL_RANGE and
# the ROADMAP item-4 magnitudes
_ILL_RATIOS = (1e-4, 1e-6, 1e-8, 1e-9)
_EXTREME_NORMS = (1e-300, 1e150, 1e155, 1e160)
# sigma_3/sigma_1 range in which the kernel route is known to lose accuracy
_ILL_RANGE = (1e-10, 1e-3)


def _ill_conditioned(a: np.ndarray) -> bool:
    """Whether sigma_3/sigma_1 of the unfolding lies in _ILL_RANGE: the
    kernel route's accuracy loss depends on that ratio, not on how the
    input was made."""
    s1, _, s3 = np.linalg.svd(np.asarray(a, dtype=float).reshape(3, 9), compute_uv=False)
    return s1 > 0.0 and _ILL_RANGE[0] < s3 / s1 < _ILL_RANGE[1]


class Analyze(Workload):
    """hyper3, classify, kernel, l_eigen, l_inverse, rank_and_nullspace,
    invariants and rotate on one tensor.

    Timed block of 64 inputs, shuffled: 28 Gaussian; one of each of the
    14 FIXTURE_CLASSES plus Levi-Civita (15); 3 each of rank 0, 1 and 2
    (9); 3 each with sigma_3/sigma_1 = 1e-2 and 1e-12 (6); 6 Gaussian at
    SI piezoelectric scale (norm ~1e-12).  A generated input whose
    sigma_3/sigma_1 falls in _ILL_RANGE goes to the defect probe and is
    redrawn.  The probe also gets, per block, the ratios 1e-4, 1e-6, 1e-8
    and 1e-9 and the norms 1e-300, 1e150, 1e155 and 1e160.
    """

    name = "analyze"
    pool_rounds = 2
    count_rounds = 2

    def _block(self, rng, tracer, clock, b: int) -> tuple[list, list]:
        items, held = [], []

        def add(klass, make):
            a = make()
            while _ill_conditioned(a):
                held.append(("ill_conditioned", a))
                a = make()
            items.append((klass, a))

        def fixture(klass):
            return tracer.call("symmetry.make_fixture", tt.make_fixture, klass, int(rng.integers(2**31)))

        with clock.step(("generate", b)):
            for _ in range(28):
                add("gaussian", lambda: rng.standard_normal((3, 3, 3)))
            for klass in tt.FIXTURE_CLASSES:
                add("fixture", lambda: fixture(klass))
            items.append(("fixture", tt.levi_civita()))
            for rank in (0, 1, 2):
                for _ in range(3):
                    gains = rng.uniform(0.5, 2.5, size=rank)
                    items.append(("low_rank", _from_singular_values(rng, np.r_[gains, np.zeros(3 - rank)])))
            for ratio in (*_RATIOS, *_RATIOS, *_RATIOS, *_ILL_RATIOS):
                sigma = rng.uniform(0.5, 2.0) * np.array([1.0, np.sqrt(ratio), ratio])
                a = _from_singular_values(rng, sigma)
                if ratio in _ILL_RATIOS:
                    held.append(("ill_conditioned", a))
                else:
                    items.append(("condition_sweep", a))
            for _ in range(6):
                norm = 10 ** rng.uniform(-12.5, -11.5)
                add("si_scale", lambda: _with_norm(rng.standard_normal((3, 3, 3)), norm))
            for norm in _EXTREME_NORMS:
                held.append(("extreme", _with_norm(rng.standard_normal((3, 3, 3)), norm)))
            order = rng.permutation(len(items))
        block, probe = [], []
        for n, (klass, a) in enumerate([items[i] for i in order] + held):
            with clock.step(("reference", b, n)):
                a = np.array(a, dtype=float).reshape(3, 3, 3)
                rot = _rotation(rng)
                (block if n < len(items) else probe).append((klass, a, rot, refs.analyze_reference(a, rot)))
        return block, probe

    def setup(self, seed, tracer, clock):
        rng = _seeded(seed, 1)
        blocks = [self._block(rng, tracer, clock, b) for b in range(self.pool_rounds)]
        self.rounds = [block for block, _ in blocks]
        self.probe = [item for _, probe in blocks for item in probe]
        for n, item in enumerate(self.rounds[0]):
            # warm-up only: failures are counted in the timed rounds
            _UNTRACED.laps.clear()
            with contextlib.suppress(Exception):
                self.run_item(item, _UNTRACED)
            for j, ns in enumerate(_UNTRACED.laps):
                clock.add(("warm-up", n, j), ns)

    def run_item(self, item, tracer):
        _, raw, rot, _ = item
        call = tracer.call
        a = call("core.hyper3", tt.hyper3, raw)
        call("symmetry.classify", tt.classify, a)
        call("spectral.kernel", tt.kernel, a)
        sys_ = call("spectral.l_eigen", tt.l_eigen, a)
        try:
            inverse = call("spectral.l_inverse", tt.l_inverse, a)
        except tt.SingularTensor:
            inverse = None
        rank, basis = call("spectral.rank_and_nullspace", tt.rank_and_nullspace, a)
        try:
            inv = call("varspec.invariants", tt.invariants, a).as_dict()
        except tt.TensorError as exc:
            inv = exc
        rotated = call("core.rotate", tt.rotate, a, rot)
        return {
            "sigma": sys_.sigma, "inverse": inverse, "singular": inverse is None,
            "rank": rank, "null_dim": len(basis), "invariants": inv, "rotated": rotated,
        }

    def check_round(self, items, outs):
        reasons = []
        for (_, a, _, ref), out in zip(items, outs):
            if isinstance(out, Exception):
                reasons.append("error:" + type(out).__name__)
            else:
                reasons.append(refs.check_analyze(a, out, ref))
        return reasons


# ---------------------------------------------------------------------------
# audit: rotation invariance of one fixture under one rotation

_SOLVERS = (
    ("varspec.max_singular_value", tt.max_singular_value),
    ("varspec.max_c_eigenvalue", tt.max_c_eigenvalue),
    ("varspec.max_z_eigenvalue", tt.max_z_eigenvalue),
)
# the first 10 audited quantities (7 invariants, 3 L-eigenvalues) are
# closed-form; the last 3 (eta_1, mu_1, nu_1) come from multistart solves
_CLOSED_FORM = 10


class Audit(Workload):
    """random_rotation, rotate, invariants, l_eigen and eta_1, mu_1, nu_1
    at 12 restarts on a rotated fixture; drift < 1e-8 against the same
    quantities of the unrotated fixture.

    The pool is one round: the fixtures ``make_fixture(klass, i)`` for
    i < 8 and both classes, each under ``random_rotation(r)`` for r < 2.
    These are pairs of acceptance criterion 4, which requires all of them
    to pass, and they are the same for every seed.  A seeded rotation set
    made the latency percentiles follow the seed: one fixture needs
    either ~530 or ~1000 solver iterations depending on its rotation, and
    with 32 pairs the p90 fell between 25 and 51 ms over seeds 201 to 209
    depending on how many of its pairs were slow.  Two rotations per
    fixture, not four, leave each pair enough executions per run for the
    fastest-lap estimate (see NOTES.md).

    The seed draws the defect probe: the same fixtures under 2 seeded
    rotations each.  At 12 restarts a solver can miss the maximum on some
    of them (about 1 pair in 500), which fails the drift check.
    """

    name = "audit"
    restarts = 12
    rotations = 2

    def _quantities(self, a, tracer):
        """The 13 audited values, and the solvers' triples."""
        call = tracer.call
        inv = call("varspec.invariants", tt.invariants, a).as_dict()
        sigma = call("spectral.l_eigen", tt.l_eigen, a).sigma
        triples = [tracer.solve(name, fn, a, self.restarts) for name, fn in _SOLVERS]
        return np.array([*inv.values(), *sigma, *(t.value for t in triples)]), triples

    def setup(self, seed, tracer, clock):
        probe_base = int(_seeded(seed, 3).integers(2**40))
        items, self.probe = [], []
        for klass in ("symmetric", "primarily_symmetric"):
            for i in range(8):
                with clock.step(("fixture", klass, i)):
                    a = tracer.call("symmetry.make_fixture", tt.make_fixture, klass, i)
                # the reference solves are long, so each call is its own step
                _UNTRACED.laps.clear()
                values, triples = self._quantities(a, _UNTRACED)
                ref = (values, [refs.attained(a, t) for t in triples])
                for j, ns in enumerate(_UNTRACED.laps):
                    clock.add(("reference", klass, i, j), ns)
                for r in range(self.rotations):
                    items.append((a, ref, r))
                    self.probe.append((a, ref, probe_base + len(self.probe)))
        self.rounds = [items]
        # the reference solves have run every fixture already, so the
        # warm-up takes one rotation of each
        for n, item in enumerate(items[::self.rotations]):
            # warm-up only: failures are counted in the timed rounds
            _UNTRACED.laps.clear()
            with contextlib.suppress(Exception):
                self.run_item(item, _UNTRACED)
            for j, ns in enumerate(_UNTRACED.laps):
                clock.add(("warm-up", n, j), ns)

    def item_class(self, item):
        return "fixture"

    def run_item(self, item, tracer):
        a, _, rot_seed = item
        p = tracer.call("core.random_rotation", tt.random_rotation, rot_seed)
        b = tracer.call("core.rotate", tt.rotate, a, p)
        return b, *self._quantities(b, tracer)

    def check_round(self, items, outs):
        reasons = []
        for (_, (ref, ref_attained), _), out in zip(items, outs):
            if isinstance(out, Exception):
                reasons.append("error:" + type(out).__name__)
                continue
            b, values, triples = out
            drifts = [refs.drift(v, w) for v, w in zip(values, ref)]
            drifted = [j for j, d in enumerate(drifts[_CLOSED_FORM:]) if d >= refs.DRIFT_TOL]
            if max(drifts[:_CLOSED_FORM]) >= refs.DRIFT_TOL:
                reasons.append("drift_closed_form")
            elif not drifted:
                reasons.append(None)
            elif all(ref_attained[j] and refs.attained(b, triples[j]) for j in drifted):
                reasons.append("missed_maximum")
            else:
                reasons.append("drift_variational")
        return reasons


_UNTRACED = Tracer()  # never enabled: for warm-up and reference solves


# ---------------------------------------------------------------------------
# cli: one cold `python -m tritensor` process per item

_SUBCOMMANDS = (
    ("classify", "--json"),
    ("l-eigen", "--json"),
    ("invariants", "--json"),
    ("singular", "--json"),
    ("z-eigen", "--json"),
    ("l-inverse", "--json", "--out"),
)
# a fixed symmetric tensor of unit norm, the same for every seed
_CLI_TENSOR = _symmetrized(np.random.default_rng([0, 4]).standard_normal((3, 3, 3)))
_CLI_TENSOR /= np.linalg.norm(_CLI_TENSOR)


def import_self_ns(stderr: str) -> dict:
    """("import", module) -> self time in ns, from ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, _, module = line[len("import time:"):].split("|")
            times[("import", module.strip())] = int(self_us) * 1000
    return times


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """Cold CLI processes, one at a time, on tensor files written in setup.

    The pool is one round: the six subcommands above on one symmetric
    tensor file (a fixed tensor of norm 1 in a seeded orientation);
    ``l-inverse --json --out`` writes a file, which is deleted after each
    check so that every process must write it afresh.  Each output must
    match the exit code and JSON of ``tritensor.cli.run`` on the same
    arguments in this process.
    """

    name = "cli"

    def _argv(self, path: Path, sub: tuple, out: Path) -> list:
        argv = [sub[0], str(path), *sub[1:]]
        if argv[-1] == "--out":
            argv.append(str(out))
        return argv

    def _in_process(self, argv: list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = tcli.run(argv)
        return code, buf.getvalue()

    def setup(self, seed, tracer, clock):
        files = self.out_dir / "cli-files"
        files.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)
        path = files / "t.json"
        with clock.step("tensor-file"):
            p = _rotation(_seeded(seed, 4))
            a = np.einsum("iq,jr,ks,qrs->ijk", p, p, p, _CLI_TENSOR)
            path.write_text(json.dumps(tcli.tensor_file_dict(a, "t")), encoding="utf-8")
        items = []
        for sub in _SUBCOMMANDS:
            ref_out = files / f"{sub[0]}-ref.json"
            ref_argv = self._argv(path, sub, ref_out)
            with clock.step(("reference", sub[0])):
                code, text = self._in_process(ref_argv)
            if sub[-1] == "--out":
                text = ref_out.read_text(encoding="utf-8")
            out = files / f"{sub[0]}.json"
            out.unlink(missing_ok=True)
            items.append((self._argv(path, sub, out), ref_argv, code, json.loads(text), out))
        self.rounds = [items]

    def after_setup(self):
        # one cold process first, so that the timed ones find warm file caches
        self._spawn(["-m", "tritensor", *self.rounds[0][0][0]])

    def _spawn(self, args: list) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=120,
        )

    def item_class(self, item):
        return item[0][0]

    def run_item(self, item, tracer):
        argv = item[0]
        return tracer.call("cli.process", self._spawn, ["-X", "importtime", "-m", "tritensor", *argv])

    def parts(self, out, laps):
        """The rest of the process, and the self-time of each module it
        imports (``-X importtime``).  Every subcommand's process imports
        the same ~230 modules, so a module's import counts at its fastest
        over all processes of the run."""
        if isinstance(out, Exception):
            return laps, {}
        imports = import_self_ns(out.stderr)
        return [laps[0] - sum(imports.values()), *laps[1:]], imports

    def check_round(self, items, outs):
        reasons = []
        for (argv, _, code, doc, out_path), proc in zip(items, outs):
            if isinstance(proc, Exception):
                reasons.append("error:" + type(proc).__name__)
                continue
            if proc.returncode != code:
                reasons.append("exit_code")
                continue
            if "--out" in argv:
                try:
                    text = out_path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    text = ""
                out_path.unlink(missing_ok=True)
            else:
                text = proc.stdout
            try:
                same = json.loads(text) == doc
            except json.JSONDecodeError:
                same = False
            reasons.append(None if same else "json_differs")
        return reasons

    def after_round(self, items, tracer):
        tracer.call("probe.interp", self._spawn, ["-c", "pass"])
        tracer.call("probe.import", self._spawn, ["-c", "import tritensor"])
        for _, ref_argv, _, _, _ in items:
            tracer.call("cli.run", self._in_process, ref_argv)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Analyze, Audit, Cli)}
