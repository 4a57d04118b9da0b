"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``cvqkd`` modules, the methods of
the reconciliation code classes and ``scipy.optimize.linprog`` as ``decoy``
sees it, always at the attribute the caller looks up (``protocol`` imported
``transmit_measure`` by name, so both ``protocol.transmit_measure`` and
``channel.transmit_measure`` are patched).  Nothing inside ``src/`` changes:
the wrappers are installed around one traced op and removed afterwards, so
untraced ops run the program untouched.

Each span records name, start, end, parent and op id in column lists that
stay in memory until the run writes them out as one JSON trace; once
``SPAN_CAP`` spans are held, later ops keep only their aggregates.  Counts
(frames, modes, bytes) are recorded at the same boundaries from arguments
and return values.  A target that does not exist is skipped and reported,
so a later change that renames or batches a function does not break the
traced run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

SPAN_CAP = 300_000

# (module, attribute path, group): group names the layer bucket a span
# counts towards; spans of one group nested in another span of the same
# group are counted once, at the outermost level.
TARGETS = (
    ("protocol", "run_session", "run_session"),
    ("protocol", "run_decoy_flow", "flow"),
    ("protocol", "run_gaussian_postselected", "flow"),
    ("protocol", "estimate_channel", "estimate"),
    ("protocol", "distill", "distill"),
    ("protocol", "resolve_code", "resolve_code"),
    ("protocol", "save_transcript", "save"),
    ("protocol", "transmit_measure", "transmit"),
    ("channel", "transmit_measure", "transmit"),
    ("modulation", "sample_key_blocks", "modulation_sample"),
    ("modulation", "sample_gaussian_blocks", "modulation_sample"),
    ("modulation", "sample_sphere_blocks", "modulation_sample"),
    ("modulation", "label_by_band", "modulation_sample"),
    ("modulation", "blocks_to_quadratures", "modulation_sample"),
    ("modulation", "write_blocks_csv", "write_csv"),
    ("algebra", "mul", "mul"),
    ("algebra", "inv", "mul"),
    ("algebra", "sample_orthogonal", "sample_orthogonal"),
    ("algebra", "OrthogonalTransform.apply", "transform_apply"),
    ("algebra", "OrthogonalTransform.apply_inverse", "transform_apply"),
    ("reconciliation", "reconcile", "reconcile"),
    ("reconciliation", "bob_reduce", "reduce"),
    ("reconciliation", "alice_reduce", "reduce"),
    ("reconciliation", "normalize_alice_blocks", "normalize"),
    ("reconciliation", "normalize_bob_blocks", "normalize"),
    ("reconciliation", "IdentityCode.syndrome", "syndrome"),
    ("reconciliation", "RepetitionCode.syndrome", "syndrome"),
    ("reconciliation", "ConcatenatedCode.syndrome", "syndrome"),
    ("reconciliation", "ParityCheckCode.syndrome", "syndrome"),
    ("reconciliation", "IdentityCode.decode", "decode"),
    ("reconciliation", "RepetitionCode.decode", "decode"),
    ("reconciliation", "ConcatenatedCode.decode", "decode"),
    ("reconciliation", "ParityCheckCode.decode", "decode"),
    ("security", "secret_key_rate", "secret_key_rate"),
    ("security", "z_correlation", "z"),
    ("security", "optimize_va", "optimize_va"),
    ("decoy", "optimize_decoy", "optimize_decoy"),
    ("decoy", "f_dist", "photon_law"),
    ("decoy", "g_dist", "photon_law"),
    ("decoy", "mixture_photon_dist", "photon_law"),
    ("decoy", "povm_scale", "photon_law"),
    ("decoy", "optimize.linprog", "lp"),
    ("cli", "main", "cli"),
)

# per-layer metric -> (kind, group); "incl" sums outermost span durations,
# "self" subtracts the time covered by child spans, "calls" counts them
SPAN_METRICS = {
    "reconciliation.reconcile_s": ("incl", "reconcile"),
    "reconciliation.reduce_s": ("incl", "reduce"),
    "reconciliation.syndrome_s": ("incl", "syndrome"),
    "reconciliation.syndrome_calls": ("calls", "syndrome"),
    "reconciliation.decode_s": ("incl", "decode"),
    "reconciliation.decode_calls": ("calls", "decode"),
    "algebra.mul_s": ("incl", "mul"),
    "algebra.sample_orthogonal_s": ("incl", "sample_orthogonal"),
    "algebra.transform_apply_s": ("incl", "transform_apply"),
    "modulation.sample_s": ("incl", "modulation_sample"),
    "modulation.write_csv_s": ("incl", "write_csv"),
    "channel.transmit_s": ("incl", "transmit"),
    "protocol.flow_s": ("incl", "flow"),
    "protocol.flow_self_s": ("self", "flow"),
    "protocol.estimate_s": ("incl", "estimate"),
    "protocol.distill_s": ("incl", "distill"),
    "protocol.distill_self_s": ("self", "distill"),
    "protocol.save_self_s": ("self", "save"),
    "security.secret_key_rate_calls": ("calls", "secret_key_rate"),
    "security.secret_key_rate_s": ("incl", "secret_key_rate"),
    "security.z_calls": ("calls", "z"),
    "security.z_s": ("incl", "z"),
    "security.optimize_va_calls": ("calls", "optimize_va"),
    "security.optimize_va_s": ("incl", "optimize_va"),
    "decoy.optimize_s": ("incl", "optimize_decoy"),
    "decoy.lp_solves": ("calls", "lp"),
    "decoy.lp_s": ("incl", "lp"),
    "decoy.photon_law_s": ("incl", "photon_law"),
    "cli.self_s": ("self", "cli"),
}

# counts recorded at span boundaries or by the harness around the op
COUNT_METRICS = (
    "reconciliation.frames",
    "reconciliation.frames_failed",
    "algebra.scalar_ops",
    "algebra.transform_bytes",
    "modulation.blocks",
    "channel.modes",
    "protocol.persist_bytes",
    "cli.rows",
)


def _count_reconcile(tracer, args, result):
    tracer.add("reconciliation.frames", int(result.n_frames))
    failed = int(result.n_frames - np.count_nonzero(result.frame_success))
    tracer.add("reconciliation.frames_failed", failed)


def _count_flow(tracer, args, result):
    tracer.add("modulation.blocks", int(result.alice_blocks.shape[0]))
    kept = result.band_kept_fraction
    # pre-labeled key blocks are never discarded by a band
    tracer.ratios["modulation.band_kept_ratio"] = 1.0 if kept is None else float(kept)


def _count_transform(tracer, args, result):
    # size of the reflector record (what apply streams per pass and what
    # transform.bin holds): an 8-byte header plus k*n float64 values
    tracer.add("algebra.transform_bytes", 8 + 8 * int(result.reflectors.size))


def _count_transmit(tracer, args, result):
    tracer.add("channel.modes", int(np.shape(args[0])[0]))


COUNTERS = {
    ("reconciliation", "reconcile"): _count_reconcile,
    ("protocol", "run_decoy_flow"): _count_flow,
    ("protocol", "run_gaussian_postselected"): _count_flow,
    ("algebra", "sample_orthogonal"): _count_transform,
    ("protocol", "transmit_measure"): _count_transmit,
    ("channel", "transmit_measure"): _count_transmit,
}


class Tracer:
    """Records nested spans for one op at a time; see the module docstring."""

    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self._name_ids = {}
        self._groups = []
        self.col_name, self.col_parent, self.col_op = [], [], []
        self.col_start, self.col_end = [], []
        self._stack = []
        self._patches = []
        self.skipped = []
        self.dropped_spans = 0
        self.op_id = None
        self.counts = {}
        self.ratios = {}

    def _intern(self, name, group):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._groups.append(group)
        return self._name_ids[name]

    def _wrap(self, fn, name_id, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.col_name)
            tracer.col_name.append(name_id)
            tracer.col_parent.append(stack[-1] if stack else -1)
            tracer.col_op.append(tracer.op_id)
            tracer.col_end.append(0)
            stack.append(idx)
            tracer.col_start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.col_end[idx] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every target that exists; record the ones that do not."""
        self.skipped = []
        for module_name, path, group in TARGETS:
            owner = self.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.skipped.append(f"{module_name}.{path}")
                continue
            name_id = self._intern(f"{module_name}.{path}", group)
            counter = COUNTERS.get((module_name, path))
            # an inherited method is restored by deleting the override
            own = attr in vars(owner)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, name_id, counter))

    def uninstall(self):
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self, op_id):
        self.op_id = op_id
        self.counts = {}
        self.ratios = {}
        self._first = len(self.col_name)
        self.install()

    def end_op(self):
        """Remove the wrappers and return this op's per-layer metrics."""
        self.uninstall()
        first = self._first
        metrics = self._layer_metrics(first)
        metrics["trace.spans"] = len(self.col_name) - first
        if len(self.col_name) > SPAN_CAP:
            # the aggregates above are kept; only the raw spans are dropped
            self.dropped_spans += len(self.col_name) - first
            for col in (self.col_name, self.col_parent, self.col_op,
                        self.col_start, self.col_end):
                del col[first:]
        self.op_id = None
        return metrics

    def _layer_metrics(self, first):
        n = len(self.col_name)
        groups = [self._groups[self.col_name[i]] for i in range(first, n)]
        durations = [self.col_end[i] - self.col_start[i] for i in range(first, n)]
        parents = [p - first if p >= first else -1 for p in self.col_parent[first:n]]
        child_ns = [0] * (n - first)
        outermost = [True] * (n - first)
        for i, p in enumerate(parents):
            if p >= 0:
                child_ns[p] += durations[i]
            group = groups[i]
            while p >= 0:
                if groups[p] == group:
                    outermost[i] = False
                    break
                p = parents[p]
        totals = {}
        for i, group in enumerate(groups):
            if not outermost[i]:
                continue
            incl, self_ns, calls = totals.get(group, (0, 0, 0))
            totals[group] = (incl + durations[i], self_ns + durations[i] - child_ns[i],
                             calls + 1)
        metrics = {}
        for metric, (kind, group) in SPAN_METRICS.items():
            incl, self_ns, calls = totals.get(group, (0, 0, 0))
            if kind == "calls":
                metrics[metric] = calls
            else:
                metrics[metric] = (incl if kind == "incl" else self_ns) * 1e-9
        for key in COUNT_METRICS:
            metrics[key] = self.counts.get(key, 0)
        frames = metrics["reconciliation.frames"]
        metrics["reconciliation.frame_success_ratio"] = (
            (frames - metrics["reconciliation.frames_failed"]) / frames if frames else 0.0
        )
        metrics["modulation.band_kept_ratio"] = self.ratios.get(
            "modulation.band_kept_ratio", 0.0
        )
        return metrics

    def write(self, path, header):
        """Write the spans kept in memory as one columnar JSON document."""
        doc = dict(header)
        doc.update(
            names=self.names,
            dropped_spans=self.dropped_spans,
            skipped_wrappers=self.skipped,
            spans={
                "name": self.col_name,
                "parent": self.col_parent,
                "op": self.col_op,
                "start_ns": self.col_start,
                "end_ns": self.col_end,
            },
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(per_op, setup=None):
    """Median of each per-layer metric over the traced ops, plus the traced set-up.

    Set-up runs once per run (the decoy design of a decoy session, say), so
    its spans and counts are added to the median op; ratios are left alone.
    """
    keys = per_op[0].keys() if per_op else ()
    summary = {key: statistics.median(op[key] for op in per_op) for key in keys}
    for key, value in (setup or {}).items():
        if key in summary and not key.endswith("_ratio"):
            summary[key] += value
    return summary
