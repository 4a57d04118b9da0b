"""The benchmark's workloads: inputs drawn from the seed, one op, output checks.

Every workload is a closed loop with one client: the harness issues the next
op only after the previous one has returned and been checked.  Op ``i`` of a
run with workload seed ``s`` draws its inputs from ``(s, i)`` alone, so two
runs with the same seed see the same inputs and every op sees fresh ones.

``run`` times the call a user waits for (``run_session``, the key-rate
sweep, the decoy-design set) and returns an ``OpResult``; where the workload
persists its output, ``save`` then times that as a second part, so the
harness can time its reference kernel between the two.
``check`` lists every output check that failed, ``fingerprint`` condenses the
outputs the determinism check compares, and ``release`` frees the op's
memory and files.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import shutil
import time

import numpy as np

from cvqkd import cli, decoy, protocol
from cvqkd.channel import ChannelParams

from zref import z_reference

# estimates must lie within this many delta-method standard deviations
K_SIGMA = 5.0
Z_REL_TOL = 1e-9
EPSILON_SLACK = 1e-12
TRANSCRIPT_FILES = ("manifest.txt", "symbols.csv", "outcomes.csv", "transform.bin",
                    "alice_key.txt", "bob_key.txt")


@dataclasses.dataclass
class OpResult:
    call_s: float
    items: int
    state: object
    out_dir: str
    persist_s: float = None   # wall time of persisting the output, after the call
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def op_s(self):
        return self.call_s + (self.persist_s or 0.0)


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workload:
    name = ""
    why = ""
    loop = "closed loop, one client, one op at a time"
    persist = False
    # the report's names: "<call_name>_s" for call_s, items_metric for items/s
    call_name = ""
    items_metric = None
    item_unit = ""

    def sizes(self):
        raise NotImplementedError

    def prepare(self, seed):
        """Set-up work done once per run, before the first op."""

    def release(self, result):
        result.state = None
        shutil.rmtree(result.out_dir, ignore_errors=True)

    def describe(self):
        return {"name": self.name, "why": self.why, "loop": self.loop,
                "item_unit": self.item_unit, "sizes": self.sizes()}


class SessionWorkload(Workload):
    """One op: ``protocol.run_session``, then optionally ``save_transcript`` (``save``)."""

    call_name = "session"
    items_metric = "symbols_per_s"
    item_unit = "symbols"

    def __init__(self, name, why, config, design=None, persist=False):
        self.name, self.why = name, why
        self.config_kwargs = config
        self.design_args = design
        self.persist = persist
        self.base = None

    def sizes(self):
        sizes = {key: value for key, value in self.config_kwargs.items()
                 if key != "channel"}
        channel = self.config_kwargs["channel"]
        sizes.update(t=channel.t, xi=channel.xi, detection=channel.detection)
        sizes["decoy_design"] = self.design_args
        sizes["persist"] = self.persist
        return sizes

    def prepare(self, seed):
        design = decoy.optimize_decoy(*self.design_args) if self.design_args else None
        self.base = protocol.ProtocolConfig(decoy=design, seed=0, **self.config_kwargs)

    def run(self, seed, i, out_dir):
        config = dataclasses.replace(self.base, seed=1000 * seed + i)
        start = time.perf_counter()
        transcript = protocol.run_session(config)
        call_s = time.perf_counter() - start
        return OpResult(call_s, config.n_symbols, transcript, out_dir)

    def save(self, result):
        """The op's second timed part, where ``persist`` is set."""
        start = time.perf_counter()
        protocol.save_transcript(result.state, result.out_dir)
        result.persist_s = time.perf_counter() - start
        result.counts["protocol.persist_bytes"] = _dir_bytes(result.out_dir)

    def check(self, result):
        tr = result.state
        config = tr.config
        channel = config.channel
        failures = []
        std_t, std_xi = protocol.estimation_std(
            channel.t_eff, channel.xi, config.v_a, tr.n_est_samples, channel.detection
        )
        if abs(tr.t_hat - channel.t_eff) > K_SIGMA * std_t:
            failures.append(f"t_hat {tr.t_hat!r} off {channel.t_eff} by > {K_SIGMA} std")
        if abs(tr.xi_hat - channel.xi) > K_SIGMA * std_xi:
            failures.append(f"xi_hat {tr.xi_hat!r} off {channel.xi} by > {K_SIGMA} std")
        success = float(np.mean(tr.reconcile_result.frame_success))
        if success < 1.0 - config.max_frame_failure:
            failures.append(f"frame success {success:.4f} below "
                            f"{1.0 - config.max_frame_failure}")
        if not np.array_equal(tr.alice_bits, tr.bob_bits):
            failures.append("alice and bob keys differ")
        k = tr.report.k
        limit = math.floor(k * tr.n_key_modes) if k > 0 else 0
        if tr.alice_bits.size > limit:
            failures.append(f"emitted {tr.alice_bits.size} bits, bound allows {limit}")
        if self.persist:
            failures += self._check_manifest(tr, result.out_dir)
        return failures

    @staticmethod
    def _check_manifest(tr, out_dir):
        manifest = {}
        with open(os.path.join(out_dir, "manifest.txt")) as fh:
            for line in fh:
                if not line.startswith("#"):
                    key, _, value = line.rstrip("\n").partition(" ")
                    manifest[key] = value
        failures = []
        if float(manifest.get("t_hat", "nan")) != tr.t_hat:
            failures.append(f"manifest t_hat {manifest.get('t_hat')} != {tr.t_hat!r}")
        if manifest.get("emitted_bits") != str(tr.alice_bits.size):
            failures.append(f"manifest emitted_bits {manifest.get('emitted_bits')} "
                            f"!= {tr.alice_bits.size}")
        return failures

    def fingerprint(self, result):
        if self.persist:
            return {name: _sha256(os.path.join(result.out_dir, name))
                    for name in TRANSCRIPT_FILES}
        tr = result.state
        digest = hashlib.sha256()
        for array in (tr.labels, tr.alice_blocks, tr.bob_blocks, tr.outcomes,
                      tr.basis, tr.transform.reflectors, tr.key_indices,
                      tr.alice_bits, tr.bob_bits):
            if array is not None:
                digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(repr((tr.t_hat, tr.xi_hat, tr.report.k)).encode())
        return digest.hexdigest()


class KeyrateWorkload(Workload):
    """One op: a ``cvqkd keyrate --optimize-va`` distance sweep via ``cli.main``."""

    name = "keyrate_sweep"
    call_name = "sweep"
    items_metric = "rate_points_per_s"
    item_unit = "rate points"
    xi_range = (0.004, 0.006)
    va_range = (0.05, 5.0)   # the CLI's default --va-min/--va-max
    ds = ("1", "2", "4", "8", "inf")

    def __init__(self, why, steps=41):
        self.why = why
        self.steps = steps

    def sizes(self):
        return {"sweep": "distance_km", "start": 0, "stop": 100, "steps": self.steps,
                "d": ",".join(self.ds), "optimize_va": True, "eta": 0.6, "beta": 0.8,
                "xi_range": self.xi_range, "rows": self.steps * len(self.ds)}

    def run(self, seed, i, out_dir):
        rng = np.random.default_rng([seed, i])
        xi = float(rng.uniform(*self.xi_range))
        spot = rng.integers(0, self.steps, size=len(self.ds))
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "rates.csv")
        argv = ["keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "100",
                "--steps", str(self.steps), "--d", ",".join(self.ds), "--optimize-va",
                "--eta", "0.6", "--beta", "0.8", "--xi", repr(xi), "--out", path]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        rows = []
        if code == 0:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        state = {"code": code, "xi": xi, "rows": rows, "spot": spot, "path": path}
        return OpResult(elapsed, len(rows), state, out_dir, counts={"cli.rows": len(rows)})

    def check(self, result):
        state = result.state
        if state["code"] != 0:
            return [f"keyrate exited with code {state['code']}"]
        rows = state["rows"]
        expected = self.steps * len(self.ds)
        failures = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        numeric = ("value", "v_a", "t", "xi", "eta", "beta", "t_eff", "snr", "i_ab",
                   "chi_be", "k", "delta_xi", "z_d", "z_epr", "f_factor")
        lo, hi = self.va_range
        for n, row in enumerate(rows):
            values = {key: float(row[key]) for key in numeric}
            bad = [key for key, value in values.items() if not math.isfinite(value)]
            if bad:
                failures.append(f"row {n}: non-finite {bad}")
                continue
            if values["z_d"] > values["z_epr"] * (1.0 + 1e-12):
                failures.append(f"row {n}: z_d {values['z_d']} > z_epr {values['z_epr']}")
            if not lo <= values["v_a"] <= hi:
                failures.append(f"row {n}: v_a {values['v_a']} outside [{lo}, {hi}]")
            if values["xi"] != state["xi"]:
                failures.append(f"row {n}: xi {values['xi']} != drawn {state['xi']}")
        # one row per dimension, at a distance drawn from the op's seed
        for j, step in enumerate(state["spot"]):
            n = int(step) * len(self.ds) + j
            if n >= len(rows):
                continue
            row = rows[n]
            d = math.inf if row["d"] == "inf" else int(row["d"])
            ref = z_reference(d, float(row["v_a"]))
            if abs(float(row["z_d"]) - ref) > Z_REL_TOL * ref:
                failures.append(f"row {n}: z_d {row['z_d']} vs reference {ref!r}")
        return failures

    def fingerprint(self, result):
        return _sha256(result.state["path"])


class DecoyWorkload(Workload):
    """One op: three ``cvqkd decoy-opt`` designs via ``cli.main``."""

    name = "decoy_design"
    call_name = "design"
    item_unit = "designs"
    jitter = 0.01
    eps_limit = (0, 1e-4)   # design index and its certified-epsilon ceiling

    def __init__(self, why, designs=((2, 0.5, 0.5), (8, 1.0, 0.5), (8, 2.0, 0.3))):
        self.why = why
        self.designs = designs

    def sizes(self):
        return {"designs": [{"d": d, "alpha": a, "p": p} for d, a, p in self.designs],
                "alpha_jitter": self.jitter}

    def prepare(self, seed):
        # every alpha the jitter can draw must keep p <= pi_d (feasible)
        for d, alpha, p in self.designs:
            for factor in (1.0 - self.jitter, 1.0 + self.jitter):
                pi_d, _ = decoy.povm_scale(d, alpha * factor)
                if p > pi_d:
                    raise ValueError(f"jittered design ({d}, {alpha * factor}, {p}) "
                                     f"is infeasible: pi_d={pi_d}")

    def run(self, seed, i, out_dir):
        rng = np.random.default_rng([seed, i])
        factors = rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, size=len(self.designs))
        os.makedirs(out_dir, exist_ok=True)
        jobs = []
        for j, ((d, alpha, p), factor) in enumerate(zip(self.designs, factors)):
            path = os.path.join(out_dir, f"design{j}.txt")
            argv = ["decoy-opt", "--d", str(d), "--alpha", repr(float(alpha * factor)),
                    "--p", repr(p), "--out", path]
            jobs.append((argv, path))
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes = [cli.main(argv) for argv, _ in jobs]
            elapsed = time.perf_counter() - start
        designs = [decoy.DecoyDesign.load(path) if code == 0 else None
                   for code, (_, path) in zip(codes, jobs)]
        rows = sum(len(design.radii) for design in designs if design is not None)
        state = {"codes": codes, "designs": designs, "paths": [path for _, path in jobs]}
        return OpResult(elapsed, len(jobs), state, out_dir, counts={"cli.rows": rows})

    def check(self, result):
        failures = []
        for j, (code, design) in enumerate(zip(result.state["codes"],
                                               result.state["designs"])):
            if code != 0:
                failures.append(f"design {j}: decoy-opt exited with code {code}")
                continue
            # the labeled ensemble: key sphere (weight p) plus the decoy radii
            m = design.d // 2
            radii = list(design.radii) + [math.sqrt(m) * design.alpha]
            weights = [(1.0 - design.p) * w for w in design.weights] + [design.p]
            labeled = decoy.mixture_photon_dist(radii, weights, n_max=design.n_max)
            gaussian = decoy.g_dist(design.d, design.alpha, design.n_max)
            eps = decoy.trace_distance(gaussian, labeled)
            if eps > design.epsilon + EPSILON_SLACK:
                failures.append(f"design {j}: recomputed epsilon {eps!r} exceeds "
                                f"certified {design.epsilon!r}")
            if j == self.eps_limit[0] and design.epsilon > self.eps_limit[1]:
                failures.append(f"design {j}: epsilon {design.epsilon!r} above "
                                f"{self.eps_limit[1]}")
        return failures

    def fingerprint(self, result):
        return [_sha256(path) for path in result.state["paths"]]


def make_workloads(small=False):
    """The four workloads by name; ``small`` shrinks sizes for the self-test."""
    n8, n1, steps = (2 * 10**4, 2 * 10**5, 3) if small else (10**6, 4 * 10**6, 41)
    designs = ((2, 0.5, 0.5),) if small else ((2, 0.5, 0.5), (8, 1.0, 0.5), (8, 2.0, 0.3))
    channel = dict(t=0.5, xi=0.005)
    workloads = [
        SessionWorkload(
            "session_decoy_d8",
            "Decoy flow d=8, 1e6 symbols, rep16, then save_transcript; closed loop, "
            "one client. Per-frame decode and text persistence dominate.",
            dict(d=8, alpha=1.0, n_symbols=n8, flow="decoy", p_est=0.5, p=0.5,
                 code="rep16", channel=ChannelParams(detection="heterodyne", **channel)),
            design=(8, 1.0, 0.5), persist=True,
        ),
        SessionWorkload(
            "session_gaussian_d1",
            "Gaussian post-selected flow d=1 homodyne, 4e6 symbols, rep16, no save; "
            "closed loop, one client. Sampling, symmetrization and sifting dominate.",
            dict(d=1, alpha=0.5, n_symbols=n1, flow="gaussian", p_est=0.5,
                 code="rep16", channel=ChannelParams(detection="homodyne", **channel)),
        ),
        KeyrateWorkload(
            "keyrate --optimize-va over 41 distances x d in 1,2,4,8,inf (205 rows), "
            "xi drawn per op; closed loop, one client. Exercises only security and cli.",
            steps=steps,
        ),
        DecoyWorkload(
            "Three decoy-opt designs (2,0.5,0.5) (8,1,0.5) (8,2,0.3), alpha jittered 1%; "
            "closed loop, one client. Exercises the decoy LP layer.",
            designs=designs,
        ),
    ]
    return {workload.name: workload for workload in workloads}
