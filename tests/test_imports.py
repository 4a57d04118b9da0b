"""Import budget: the analytic and session paths load no optional scipy part.

scipy.stats alone costs most of a second to import, and only the
reconcile-bench p-value uses it; decoy design loads scipy.optimize but not
scipy.stats.  scipy.special is loaded only by the d >= 2 sphere windows and
the decoy photon laws, so importing the package, a d = 1 Gaussian session and
the d = 1 and d = inf key rates load no scipy module at all.  Each check runs
in a fresh interpreter, because this test process has long since imported
scipy.stats itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.integrate")


def _run(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_keyrate_and_session_load_no_deferred_scipy(tmp_path):
    code = f"""
import json, sys
from cvqkd import cli, protocol
from cvqkd.channel import ChannelParams
rc = cli.main(["keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "50",
               "--steps", "3", "--d", "1,8,inf", "--optimize-va", "--eta", "0.6",
               "--beta", "0.8", "--xi", "0.005", "--out", "rates.csv"])
config = protocol.ProtocolConfig(
    d=1, alpha=0.5, n_symbols=20000, flow="gaussian", p_est=0.5, code="rep16", seed=3,
    channel=ChannelParams(t=0.5, xi=0.005, detection="homodyne"))
transcript = protocol.run_session(config)
print(json.dumps({{"rc": rc, "blocks": int(transcript.alice_blocks.shape[0]),
                  "loaded": [m for m in {DEFERRED!r} if m in sys.modules]}}))
"""
    result = _run(code, tmp_path)
    assert result["rc"] == 0 and result["blocks"] > 0
    assert result["loaded"] == []


def test_d1_session_and_keyrate_load_no_scipy(tmp_path):
    code = """
import json, sys
from cvqkd import cli, protocol
from cvqkd.channel import ChannelParams
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {"import": scipy_loaded()}
config = protocol.ProtocolConfig(
    d=1, alpha=0.5, n_symbols=20000, flow="gaussian", p_est=0.5, code="rep16", seed=3,
    channel=ChannelParams(t=0.5, xi=0.005, detection="homodyne"))
transcript = protocol.run_session(config)
loaded["session"] = scipy_loaded()
args = ["keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "50", "--steps", "3",
        "--optimize-va", "--eta", "0.6", "--beta", "0.8", "--xi", "0.005"]
rc = [cli.main(args + ["--d", "1,inf", "--out", "rates.csv"])]
loaded["keyrate"] = scipy_loaded()
rc.append(cli.main(args + ["--d", "8", "--out", "rates8.csv"]))
loaded["keyrate_d8"] = "scipy.special" in sys.modules
print(json.dumps({"rc": rc, "bits": int(transcript.alice_bits.size), "loaded": loaded}))
"""
    result = _run(code, tmp_path)
    assert result["rc"] == [0, 0] and result["bits"] > 0
    assert result["loaded"] == {"import": [], "session": [], "keyrate": [], "keyrate_d8": True}


def test_decoy_design_loads_no_scipy_stats(tmp_path):
    code = f"""
import json, sys
from cvqkd import cli, decoy
rc = cli.main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5", "--out", "design.txt"])
decoy.povm_scale(8, 1.0)
decoy.g_dist(4, 0.7)
decoy.mixture_photon_dist([0.0, 0.5, 1.5], [0.2, 0.3, 0.5])
print(json.dumps({{"rc": rc, "loaded": [m for m in {DEFERRED!r} if m in sys.modules],
                  "special": "scipy.special" in sys.modules}}))
"""
    result = _run(code, tmp_path)
    assert result == {"rc": 0, "loaded": ["scipy.optimize"], "special": True}


def test_deferred_scipy_paths_still_run(tmp_path):
    code = """
import json
from cvqkd import cli
rc_decoy = cli.main(["decoy-opt", "--d", "2", "--alpha", "0.5", "--p", "0.5",
                     "--out", "design.txt"])
rc_bench = cli.main(["reconcile-bench", "--d", "8", "--snr", "0.5", "--frames", "50",
                     "--out", "bench.csv"])
ks = [line for line in open("bench.csv") if line.startswith("# summary")]
print(json.dumps({"rc": [rc_decoy, rc_bench], "ks": ks}))
"""
    result = _run(code, tmp_path)
    assert result["rc"] == [0, 0]
    assert (tmp_path / "design.txt").read_text().startswith("# cvqkd decoy design v1")
    (summary,) = result["ks"]
    ks_p = float(summary.split("ks_p=")[1])
    assert 0.0 <= ks_p <= 1.0
