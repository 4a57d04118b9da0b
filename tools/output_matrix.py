"""Print a sha256 listing of what a fixed set of cvqkd commands writes.

Usage: python3 tools/output_matrix.py [--check] [ROOT]

Runs each command of MATRIX with ``python3 -m cvqkd.cli`` against ROOT/src
(ROOT defaults to the checkout holding this script), in a temporary
directory with relative --out paths.  For every file a command writes, and
for each command's exit code with its stdout and stderr (the directory's
path replaced by ``WORK``), it prints one ``sha256  name`` line, then
deletes the directory; a command without --out writes no file, so only its
exit code, stdout and stderr are hashed.  The first line names the Python,
numpy and scipy versions and the SIMD target of each float64 loop in
SIMD_LOOPS, since the hashes depend on them.  Two checkouts produce the same
outputs exactly when their listings are equal.

tools/output_matrix.txt holds the listing of this checkout.  With --check the
script compares ROOT's listing against it, prints each changed line (``-``
committed, ``+`` now) and exits 1 on any difference, 0 when all match.  It
refuses to compare, with exit 2, when the committed versions or SIMD targets
are not the ones running.  A change that alters outputs on purpose rewrites the file:

    python3 tools/output_matrix.py > tools/output_matrix.txt
"""

import difflib
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata

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
# no detection key: the file's default for d = 1, with a trusted detector; its key is refused
GAUSSIAN_D1_TRUSTED = """flow gaussian
d 1
alpha 1.0
n_symbols 200000
p_est 0.5
distance_km 5
xi 0.005
eta 0.6
eta_trusted true
code rep16
seed 3
"""
# a bad value on line 2, then an unknown key on line 3
BAD_VALUE_THEN_UNKNOWN_KEY = """d 8
alpha one
colour blue
n_symbols 1000
"""
# decoy designs that do not load: a value that does not cast, and a d outside {2, 4, 8}
DESIGN_HEADER = "# cvqkd decoy design v1\nd {d}\nalpha {alpha}\np 0.5\nepsilon 0.001\nn_max 40\n"
DESIGN_BAD_VALUE = DESIGN_HEADER.format(d=8, alpha="one") + "1.0,1.0\n"
DESIGN_D3 = DESIGN_HEADER.format(d=3, alpha="1.0") + "1.0,1.0\n"
# paths, one to a well-formed parity-check file and one to a file with a bit out of
# range: each path is an unknown code id
CODE_VALID = "# n_bits k_bits\n4 2\n0 0\n0 1\n\n1 2 1\n1 3\n"
CODE_BIT_OUT_OF_RANGE = "4 2\n# check bit\n0 0\n0 7\n"
# a byte that is not UTF-8 (the files are written as latin-1, so "\xff" is the
# one byte 0xff) on line 2 of a config and on line 3 of a design
CONFIG_NON_UTF8 = "d 8\nalpha 1.0\xff\nn_symbols 1000\n"
DESIGN_NON_UTF8 = DESIGN_HEADER.format(d=8, alpha="1.0\xff") + "1.0,1.0\n"
CONFIGS = {"decoy_d8.cfg": DECOY_D8, "gaussian_d1.cfg": GAUSSIAN_D1,
           "gaussian_transcript.cfg": GAUSSIAN_TRANSCRIPT,
           "gaussian_transcript_p_est0.2.cfg": GAUSSIAN_TRANSCRIPT.replace("p_est 0.5",
                                                                           "p_est 0.2"),
           "gaussian_d1_trusted.cfg": GAUSSIAN_D1_TRUSTED,
           "bad_value_then_unknown_key.cfg": BAD_VALUE_THEN_UNKNOWN_KEY,
           "design_bad_value.txt": DESIGN_BAD_VALUE, "design_d3.txt": DESIGN_D3,
           "decoy_design_bad_value.cfg": DECOY_D8.replace("design_8_1_0.5.txt",
                                                          "design_bad_value.txt"),
           "decoy_design_d3.cfg": DECOY_D8.replace("design_8_1_0.5.txt", "design_d3.txt"),
           "code_valid.txt": CODE_VALID, "code_bit_out_of_range.txt": CODE_BIT_OUT_OF_RANGE,
           "non_utf8.cfg": CONFIG_NON_UTF8, "design_non_utf8.txt": DESIGN_NON_UTF8,
           "decoy_design_non_utf8.cfg": DECOY_D8.replace("design_8_1_0.5.txt",
                                                         "design_non_utf8.txt")}

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
    # no design reaches p = 0.9 at (8, 1): exit 1 with one error line
    ("decoy_8_1_0.9_infeasible", ["decoy-opt", "--d", "8", "--alpha", "1.0", "--p", "0.9"]),
    # the Gaussian law at (8, 200) needs more than 2^20 photon numbers: exit 2 with one
    # error line
    ("decoy_8_200_refused", ["decoy-opt", "--d", "8", "--alpha", "200", "--p", "0.001"]),
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
    # refused sweeps exit 2 with one error line and write no CSV, to --out or
    # stdout; the replayed one names row 0's v_a, not row 1's xi
    ("keyrate_va_refused_out",
     ["keyrate", "--sweep", "va", "--start", "0", "--stop", "2", "--steps", "2", "--d", "8",
      "--out", "keyrate_va_refused.csv"]),
    ("keyrate_alpha_refused",
     ["keyrate", "--sweep", "alpha", "--start", "-1", "--stop", "1", "--steps", "2", "--d", "8"]),
    ("keyrate_xi_replayed_error",
     ["keyrate", "--sweep", "xi", "--start", "0", "--stop", "-0.01", "--steps", "2",
      "--va", "inf", "--d", "8"]),
    # usage errors: exit 2
    ("keyrate_va_one_step",
     ["keyrate", "--sweep", "va", "--start", "1", "--stop", "2", "--steps", "1"]),
    ("reconcile_frames0", ["reconcile-bench", "--frames", "0"]),
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
    # code file paths are refused as unknown code ids, well-formed or not; exit 2
    ("reconcile_code_valid", ["reconcile-bench", "--code", "code_valid.txt"]),
    ("reconcile_code_bit_out_of_range",
     ["reconcile-bench", "--code", "code_bit_out_of_range.txt"]),
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
    # the estimation labels' law at a second point
    ("gaussian_transcript_p_est0.2",
     ["simulate", "--config", "gaussian_transcript_p_est0.2.cfg",
      "--out", "gaussian_transcript_p_est0.2"]),
    ("session_gaussian_d1_trusted",
     ["simulate", "--config", "gaussian_d1_trusted.cfg", "--out", "session_gaussian_d1_trusted"]),
    # refused configs: exit 2 with one error line
    ("config_bad_value_then_unknown_key",
     ["simulate", "--config", "bad_value_then_unknown_key.cfg"]),
    ("session_decoy_design_bad_value", ["simulate", "--config", "decoy_design_bad_value.cfg"]),
    ("session_decoy_design_d3", ["simulate", "--config", "decoy_design_d3.cfg"]),
    ("config_non_utf8", ["simulate", "--config", "non_utf8.cfg"]),
    ("session_decoy_design_non_utf8", ["simulate", "--config", "decoy_design_non_utf8.cfg"]),
]


COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_matrix.txt")
# float64 loops that numpy runs through a kernel chosen for the CPU at import time
# (on x86: AVX-512, AVX2 or the baseline), whose results differ in the last bits
# from one kernel to another; NPY_DISABLE_CPU_FEATURES changes the choice
SIMD_LOOPS = ("exp", "log", "log2", "log1p", "expm1", "sin", "cos")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _versions():
    from numpy.lib.introspect import opt_func_info

    loops = opt_func_info(signature="float64")
    targets = " ".join(f"{name}:{loops[name]['dd']['current']}" for name in SIMD_LOOPS)
    return (f"# python {platform.python_version()} numpy {metadata.version('numpy')} "
            f"scipy {metadata.version('scipy')} simd {targets}")


def _listing(root):
    """The version line, then one ``sha256  name`` line per output of MATRIX."""
    yield _versions()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tempfile.TemporaryDirectory(prefix="output-matrix-") as work:
        for name, text in CONFIGS.items():
            with open(os.path.join(work, name), "w", encoding="latin-1") as fh:
                fh.write(text)
        for name, args in MATRIX:
            run = subprocess.run([sys.executable, "-m", "cvqkd.cli", *args], cwd=work,
                                 env=env, capture_output=True)
            # an error about a file a config names holds the directory's random path
            status = f"{run.returncode}\n".encode() + run.stdout
            yield f"{_sha256(status.replace(work.encode(), b'WORK'))}  {name}.exit+stdout"
            yield f"{_sha256(run.stderr.replace(work.encode(), b'WORK'))}  {name}.stderr"
            if "--out" not in args:
                continue
            out = os.path.join(work, args[args.index("--out") + 1])
            paths = ([os.path.join(out, f) for f in sorted(os.listdir(out))]
                     if os.path.isdir(out) else [out] if os.path.exists(out) else [])
            for path in paths:
                with open(path, "rb") as fh:
                    yield f"{_sha256(fh.read())}  {os.path.relpath(path, work)}"


def _check(root):
    """Exit status of comparing ROOT's listing with the committed one."""
    with open(COMMITTED) as fh:
        committed = fh.read().splitlines()
    header = committed[0] if committed else ""
    if header != _versions():
        print(f"refusing to compare: {COMMITTED} was made with {header!r}, "
              f"this is {_versions()!r}", file=sys.stderr)
        return 2
    now = list(_listing(root))
    changed = [line for line in difflib.unified_diff(committed, now, lineterm="", n=0)
               if line[:1] in "-+" and line[:3] not in ("---", "+++")]
    for line in changed:
        print(line)
    print(f"{len(changed)} changed lines against {len(committed)} committed", file=sys.stderr)
    return 1 if changed else 0


def main(argv):
    check = argv[:1] == ["--check"]
    argv = argv[1:] if check else argv
    if len(argv) > 1 or argv[:1] and argv[0].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    if check:
        sys.exit(_check(root))
    for line in _listing(root):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
