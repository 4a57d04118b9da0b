"""Print a sha256 listing of what a fixed set of cvqkd commands writes.

Usage: python3 tools/output_matrix.py [ROOT]

Runs each command of MATRIX with ``python3 -m cvqkd.cli`` against ROOT/src
(ROOT defaults to the checkout holding this script), in a temporary
directory with relative --out paths.  For every file a command writes, and
for each command's exit code with its stdout and stderr, it prints one
``sha256  name`` line, then deletes the directory; a command without --out
writes no file, so only its exit code, stdout and stderr are hashed.  Two
checkouts produce the same outputs exactly when their listings are equal, so

    diff <(python3 tools/output_matrix.py OLD) <(python3 tools/output_matrix.py)

checks that a change keeps every design, CSV, stdout and transcript byte for byte.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

# the session configs of the benchmark workloads and of the tests
DECOY_D8 = """flow decoy
d 8
alpha 1.0
n_symbols 1000000
p_est 0.5
p 0.5
decoy_file design_8_1_0.5.txt
transmittance 0.5
xi 0.005
detection heterodyne
code rep16
"""
GAUSSIAN_D1 = """flow gaussian
d 1
alpha 0.5
n_symbols 4000000
p_est 0.5
transmittance 0.5
xi 0.005
detection homodyne
code rep16
"""
# the gaussian_transcript fixture of tests/test_protocol.py: its key is refused
GAUSSIAN_TRANSCRIPT = """flow gaussian
d 1
alpha 1.0
n_symbols 4096
p_est 0.5
transmittance 1.0
xi 0.0
detection homodyne
gamma_min 0.0
gamma_max inf
seed 5
"""
CONFIGS = {"decoy_d8.cfg": DECOY_D8, "gaussian_d1.cfg": GAUSSIAN_D1,
           "gaussian_transcript.cfg": GAUSSIAN_TRANSCRIPT}

# (name, argv); a command's --out, if any, names its output file or directory
MATRIX = [
    # decoy_8_1_0.5 writes the design the decoy_d8 config reads
    *[(f"decoy_{d}_{alpha}_{p}",
       ["decoy-opt", "--d", d, "--alpha", alpha, "--p", p,
        "--out", f"design_{d}_{alpha}_{p}.txt"])
      for d, alpha, p in (("2", "0.5", "0.5"), ("8", "1", "0.5"), ("8", "2", "0.3"),
                          ("4", "0.7", "0.2"))],
    ("decoy_8_1_0.5_radii2",
     ["decoy-opt", "--d", "8", "--alpha", "1", "--p", "0.5", "--max-radii", "2",
      "--out", "design_radii2.txt"]),
    ("keyrate_optimize_va",
     ["keyrate", "--sweep", "distance_km", "--start", "0", "--stop", "100", "--steps", "41",
      "--d", "1,2,4,8,inf", "--optimize-va", "--eta", "0.6", "--beta", "0.8",
      "--xi", "0.005", "--out", "keyrate_optimize_va.csv"]),
    ("keyrate_alpha_log",
     ["keyrate", "--sweep", "alpha", "--start", "0.1", "--stop", "3", "--steps", "13",
      "--scale", "log", "--eta-trusted", "--eta", "0.6", "--transmittance", "0.5",
      "--xi", "0.005", "--d", "1,2,4,8,inf", "--out", "keyrate_alpha_log.csv"]),
    ("keyrate_va_stdout",
     ["keyrate", "--sweep", "va", "--start", "0.05", "--stop", "18", "--steps", "9",
      "--d", "1,2,4,8,inf", "--transmittance", "0.5", "--xi", "0.005"]),
    ("keyrate_xi_25km",
     ["keyrate", "--sweep", "xi", "--start", "0", "--stop", "0.05", "--steps", "6",
      "--d", "1,2,4,8,inf", "--distance-km", "25", "--va", "2"]),
    # refused sweeps exit 2 with one error line; the replayed one, after the
    # CSV header, names row 0's v_a, not row 1's xi
    ("keyrate_alpha_refused",
     ["keyrate", "--sweep", "alpha", "--start", "-1", "--stop", "1", "--steps", "2", "--d", "8"]),
    ("keyrate_xi_replayed_error",
     ["keyrate", "--sweep", "xi", "--start", "0", "--stop", "-0.01", "--steps", "2",
      "--va", "inf", "--d", "8"]),
    ("reconcile_snr0.5",
     ["reconcile-bench", "--d", "1,2,4,8", "--snr", "0.5", "--out", "reconcile_snr0.5.csv"]),
    ("reconcile_inf_identity",
     ["reconcile-bench", "--d", "1,2,4,8", "--snr", "inf", "--code", "identity",
      "--out", "reconcile_inf_identity.csv"]),
    *[(f"reconcile_{name}",
       ["reconcile-bench", *args, "--out", f"reconcile_{name}.csv"])
      for name, args in (("rep1_snr0.5", ["--code", "rep1", "--snr", "0.5"]),
                         ("rep3_snr2", ["--code", "rep3", "--snr", "2"]),
                         ("d1_rep16_snr0.5", ["--d", "1", "--code", "rep16", "--snr", "0.5"]),
                         # refused code ids: exit 2 with one error line, no file
                         ("rep0", ["--code", "rep0"]),
                         ("turbo9000", ["--code", "turbo9000"]))],
    *[(f"session_decoy_d8_seed{seed}",
       ["simulate", "--config", "decoy_d8.cfg", "--seed", str(seed),
        "--out", f"session_decoy_d8_seed{seed}"])
      for seed in (0, 1, 5, 2026)],
    ("session_gaussian_d1_seed5",
     ["simulate", "--config", "gaussian_d1.cfg", "--seed", "5",
      "--out", "session_gaussian_d1_seed5"]),
    # the heterodyne Gaussian flow at d = 8, on the decoy session's config
    ("session_gaussian_d8_seed5",
     ["simulate", "--config", "decoy_d8.cfg", "--flow", "gaussian-postselected",
      "--n-symbols", "200000", "--seed", "5", "--out", "session_gaussian_d8_seed5"]),
    ("gaussian_transcript",
     ["simulate", "--config", "gaussian_transcript.cfg", "--out", "gaussian_transcript"]),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory(prefix="output-matrix-") as work:
        for name, text in CONFIGS.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        for name, args in MATRIX:
            run = subprocess.run([sys.executable, "-m", "cvqkd.cli", *args], cwd=work,
                                 env=env, capture_output=True)
            status = f"{run.returncode}\n".encode() + run.stdout
            print(f"{_sha256(status)}  {name}.exit+stdout")
            print(f"{_sha256(run.stderr)}  {name}.stderr")
            if "--out" not in args:
                continue
            out = os.path.join(work, args[args.index("--out") + 1])
            paths = ([os.path.join(out, f) for f in sorted(os.listdir(out))]
                     if os.path.isdir(out) else [out] if os.path.exists(out) else [])
            for path in paths:
                with open(path, "rb") as fh:
                    print(f"{_sha256(fh.read())}  {os.path.relpath(path, work)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
