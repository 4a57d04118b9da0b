#!/usr/bin/env python3
"""Small-size self-test of the benchmark harness; runs in well under a minute.

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` follows the benchmark's schema, that every
workload at small sizes completes with all checks passing in both the
untraced and the traced mode, that the two modes print every metric
``BENCHMARK.json`` names, that each output check catches a corrupted output,
and that a wrapper whose target is missing is skipped rather than fatal.
Exit code 0 means every check held.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import math
import re
import sys
import types
from contextlib import redirect_stdout

import run as harness

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec, layers):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
        names.append(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert len(names) == len(set(names)), "metric names must be unique"
    tabled = {metric for layer in layers["layers"].values() for metric in layer["metrics"]}
    missing = {m["name"] for m in spec["per_layer"]
               if not m["name"].startswith("trace.")} - tabled
    assert not missing, f"layer table lacks {sorted(missing)}"
    e2e = {m["name"] for m in spec["end_to_end"]}
    for layer in layers["layers"].values():
        for pair in layer["moves"] + layer["no_change"]:
            assert pair["metric"] in e2e and pair["workload"] in harness.WORKLOADS, pair


def check_run(workload, trace, program, spec):
    record = harness.run_workload(workload, seed=3, seconds=0, trace=trace,
                                  program=program, setup_reps=1)
    assert not record["failures"], record["failures"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = harness.emit(record, spec, {"cpus": 0})
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = last["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"]), m
        if not trace:
            assert value["value"] > 0, m
    if trace:
        layer = record["layer_ops"][0]
        assert not record["skipped_wrappers"], record["skipped_wrappers"]
        if workload.name.startswith("session"):
            assert layer["reconciliation.decode_calls"] == layer["reconciliation.frames"] > 0
            assert layer["reconciliation.reconcile_s"] > layer["reconciliation.decode_s"] > 0
            assert layer["channel.modes"] > 0 and layer["modulation.blocks"] > 0
        if workload.name == "session_decoy_d8":
            assert layer["protocol.persist_bytes"] > 0 and layer["algebra.mul_s"] > 0
            # the decoy design is built in set-up, which is traced once
            assert record["per_layer"]["decoy.lp_solves"] > 0 == layer["decoy.lp_solves"]
        if workload.name == "keyrate_sweep":
            # Z_d three times per rate, twice for d=inf (no excess-noise mapping)
            calls = layer["security.secret_key_rate_calls"]
            assert 2 * calls < layer["security.z_calls"] < 3 * calls
            assert layer["cli.rows"] == 15
        if workload.name == "decoy_design":
            assert layer["decoy.lp_solves"] > 0 and layer["decoy.lp_s"] > 0
    return record


def check_checks(workloads):
    """Each check must reject an output that was corrupted after the op."""
    session = workloads["session_decoy_d8"]
    harness.OUT.mkdir(parents=True, exist_ok=True)
    out_dir = str(harness.OUT / "selftest-session")
    result = session.run(3, 0, out_dir)
    try:
        session.save(result)
        assert session.check(result) == []
        tr = result.state
        bad = copy.copy(tr)
        bad.bob_bits = tr.bob_bits.copy()
        if bad.bob_bits.size:
            bad.bob_bits[0] ^= 1
        bad.t_hat = tr.t_hat * 1.5
        errors = session.check(dataclasses.replace(result, state=bad))
        assert any("keys differ" in e for e in errors) or not tr.bob_bits.size, errors
        assert any("t_hat" in e for e in errors), errors
    finally:
        session.release(result)

    keyrate = workloads["keyrate_sweep"]
    result = keyrate.run(3, 0, str(harness.OUT / "selftest-keyrate"))
    try:
        assert keyrate.check(result) == []
        rows = result.state["rows"]
        rows[0] = dict(rows[0], z_d=repr(float(rows[0]["z_epr"]) * 2))
        rows[1] = dict(rows[1], k="nan")
        errors = keyrate.check(result)
        assert any("z_d" in e for e in errors) and any("non-finite" in e for e in errors)
    finally:
        keyrate.release(result)

    design = workloads["decoy_design"]
    result = design.run(3, 0, str(harness.OUT / "selftest-decoy"))
    try:
        assert design.check(result) == []
        first = result.state["designs"][0]
        result.state["designs"][0] = type(first)(**{**first.__dict__, "epsilon": 0.0})
        assert any("recomputed epsilon" in e for e in design.check(result))
    finally:
        design.release(result)


def check_missing_target(program):
    import spans

    partial = dict(program, reconciliation=types.SimpleNamespace())
    tracer = spans.Tracer(partial)
    tracer.begin_op(0)
    metrics = tracer.end_op()
    assert "reconciliation.reconcile" in tracer.skipped
    assert metrics["reconciliation.decode_calls"] == 0


def main():
    harness.cap_threads()
    harness.OUT = harness.OUT / "selftest"
    program = harness.load_program()
    import workloads as workload_module

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((harness.ROOT / "perfbench" / "layers.json").read_text())
    check_spec(spec, layers)
    small = workload_module.make_workloads(small=True)
    for name in harness.WORKLOADS:
        for trace in (0, 1):
            check_run(small[name], trace, program, spec)
            print(f"selftest: {name} trace={trace} ok")
    check_checks(small)
    check_missing_target(program)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
