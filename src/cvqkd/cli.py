"""Command-line front end: key-rate sweeps, sessions, decoy design, benches.

Every command emits versioned CSV (schema comment first) and a short textual
summary; there is no plotting here, the CSV is meant for external tools.
Exit codes: 0 success, 1 runtime failure or infeasibility, 2 usage or config.
"""

import argparse
import contextlib
import dataclasses
import errno
import math
import os
import sys

import numpy as np

from . import algebra, decoy, modulation, protocol, reconciliation, security
from .channel import ChannelParams, distance_to_T

SWEEP_VARIABLES = ("distance_km", "va", "xi", "alpha")
# first token of the keyrate and reconcile-bench tables' first line, before the
# table kind; their cells are str(), a float in its shortest round-trip form
CSV_SCHEMA = "# cvqkd-csv-v1"


@contextlib.contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_header(out, kind, names):
    out.write(f"{CSV_SCHEMA} {kind}\n{','.join(names)}\n")


def _write_rows(out, columns):
    """Write equal-length columns as comma-separated rows of str() cells."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    out.write("".join(",".join(map(str, row)) + "\n" for row in zip(*columns, strict=True)))


def _check_out(path, make_dirs):
    """Raise the OSError that writing --out would end in, creating nothing.

    save_transcript creates missing directories (make_dirs), so there the
    nearest existing ancestor of path must be a directory; a file needs an
    existing parent directory.
    """
    directory = os.path.abspath(path) if make_dirs else os.path.dirname(os.path.abspath(path))
    while make_dirs and not os.path.exists(directory):
        directory = os.path.dirname(directory)
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _parse_d_list(args, allow_inf):
    values = []
    for part in args.d.split(","):
        part = part.strip()
        if part == "inf":
            if not allow_inf:
                args.parser.error("d=inf is not supported by this command")
            values.append(math.inf)
            continue
        try:
            d = int(part)
        except ValueError:
            args.parser.error(f"bad block dimension {part!r}")
        if d not in algebra.DIVISION_DIMS:
            args.parser.error(f"d must be in {{1, 2, 4, 8}}, got {d}")
        values.append(d)
    return values


def _sweep_values(args):
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            args.parser.error(f"{flag} must be finite, got {value}")
    if args.steps < 2:
        args.parser.error("--steps must be at least 2")
    if args.scale == "log":
        if args.start <= 0 or args.stop <= 0:
            args.parser.error("log scale needs positive --start/--stop")
        return np.geomspace(args.start, args.stop, args.steps)
    return np.linspace(args.start, args.stop, args.steps)


def _keyrate_reports(args, ds, base_t, values, v_a):
    """One KeyRateReport per d over the sweep values, all rows at once."""
    t = base_t
    if args.sweep == "distance_km":
        t = np.array([distance_to_T(value) for value in values.tolist()])
    xi = values if args.sweep == "xi" else args.xi
    reports = []
    for d in ds:
        detection = security.default_detection(d) if args.detection == "auto" else args.detection
        channel = ChannelParams(
            t=t, xi=xi, eta=args.eta, detection=detection, eta_trusted=args.eta_trusted,
        )
        va_d = v_a
        if args.optimize_va:
            va_d = security.optimize_va(d, channel, args.beta, (args.va_min, args.va_max))
        reports.append(security.secret_key_rate(d, va_d, channel, args.beta))
    return reports


def cmd_keyrate(args):
    ds = _parse_d_list(args, allow_inf=True)
    values = _sweep_values(args)
    if args.optimize_va and args.sweep in ("va", "alpha"):
        args.parser.error(f"--optimize-va conflicts with sweeping {args.sweep}")
    if args.sweep == "distance_km" and (args.transmittance, args.distance_km) != (None, None):
        args.parser.error("--transmittance and --distance-km conflict with sweeping distance_km")
    if args.transmittance is not None and args.distance_km is not None:
        args.parser.error("give either --transmittance or --distance-km, not both")
    base_t = args.transmittance
    if args.distance_km is not None:
        try:
            base_t = distance_to_T(args.distance_km)
        except ValueError as exc:
            args.parser.error(f"--distance-km: {exc}, got {args.distance_km}")
    if base_t is None:
        base_t = 1.0

    if args.sweep == "va":
        v_a = values
    elif args.sweep == "alpha":
        try:
            v_a = modulation.modulation_variance(values)
        except ValueError as exc:
            raise ValueError(f"--sweep alpha: {exc}") from None
    else:
        v_a = np.full_like(values, args.va)

    try:
        reports = _keyrate_reports(args, ds, base_t, values, v_a)
    except ValueError:
        # the batch fails at its first bad d; replay the rows one at a time so
        # the error raised is the first in row order
        for i in range(len(values)):
            _keyrate_reports(args, ds, base_t, values[i:i + 1], v_a[i:i + 1])
        raise
    fields = [f.name for f in dataclasses.fields(security.KeyRateReport)][1:]
    n = len(values)
    d_texts = ["inf" if math.isinf(d) else str(int(d)) for d in ds]
    columns = [[args.sweep] * (n * len(ds)), np.repeat(values, len(ds)), d_texts * n]
    for name in fields:
        per_d = [np.broadcast_to(getattr(report, name), (n,)) for report in reports]
        columns.append(np.stack(per_d, axis=1).reshape(-1))
    with _out_stream(args.out) as out:
        _write_header(out, "keyrate", ["sweep", "value", "d"] + fields)
        _write_rows(out, columns)
    return 0


def cmd_simulate(args):
    config = protocol.ProtocolConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n_symbols is not None:
        overrides["n_symbols"] = args.n_symbols
    if args.flow is not None:
        flow = "gaussian" if args.flow == "gaussian-postselected" else args.flow
        overrides["flow"] = flow
    if overrides:
        config = dataclasses.replace(config, **overrides)
    if args.out is not None:
        _check_out(args.out, make_dirs=True)
    transcript = protocol.run_session(config)
    if args.out is not None:
        protocol.save_transcript(transcript, args.out)
    result = transcript.reconcile_result
    print(
        f"t_hat={repr(transcript.t_hat)} xi_hat={repr(transcript.xi_hat)} "
        f"beta_achieved={repr(result.beta_achieved)} k={repr(transcript.report.k)} "
        f"key_bits={transcript.alice_bits.size}"
    )
    if transcript.report.k <= 0.0:
        raise protocol.ProtocolError("key-rate bound is not positive; no key emitted")
    return 0


def cmd_decoy_opt(args):
    if args.out is not None:
        _check_out(args.out, make_dirs=False)
    design = decoy.optimize_decoy(
        args.d, args.alpha, args.p, n_radii_max=args.max_radii, n_max=args.nmax
    )
    pi_d, k_star = decoy.povm_scale(args.d, args.alpha)
    print(f"pi_d={repr(pi_d)} k_star={k_star} p={repr(args.p)} feasible=yes")
    print(
        f"epsilon={repr(design.epsilon)} n_radii={len(design.radii)} "
        f"n_max={design.n_max}"
    )
    for radius, weight in zip(design.radii, design.weights):
        print(f"radius={repr(radius)} weight={repr(weight)}")
    if args.out is not None:
        design.save(args.out)
        print(f"design written to {args.out}")
    return 0


def cmd_reconcile_bench(args):
    code = protocol.resolve_code(args.code)
    ds = _parse_d_list(args, allow_inf=False)
    if not args.snr > 0 or not all(math.isfinite(1.0 / (d * args.snr)) for d in ds):
        args.parser.error(f"--snr must be positive, with a finite noise sigma = sqrt(1/(d*snr)), "
                          f"got {args.snr}")
    if args.seed < 0:
        args.parser.error(f"--seed must be nonnegative, got {args.seed}")
    if args.frames < 1:
        args.parser.error("--frames must be at least 1")

    master = np.random.SeedSequence(args.seed)
    with _out_stream(args.out) as out:
        _write_header(out, "reconcile-bench",
                      ["d", "frame", "success", "pre_bit_errors", "post_bit_errors"])
        for d, child in zip(ds, master.spawn(len(ds))):
            rng = np.random.default_rng(child)
            n_blocks = math.ceil(args.frames * code.n_bits / d)
            x = modulation.sample_sphere_blocks(d, 1.0, n_blocks, rng)
            sigma = math.sqrt(1.0 / (d * args.snr))  # 0 at --snr inf, the noiseless channel
            y = x + sigma * rng.standard_normal(x.shape) if math.isfinite(args.snr) else x.copy()
            result = reconciliation.reconcile(x, y, code, rng)

            # the virtual channel v = u + w of the reduction reconcile used
            n_frames = result.n_frames
            used = n_frames * code.n_bits
            v = reconciliation.alice_reduce(x, result.message.t_blocks).reshape(-1)[:used]
            w = v - (1.0 - 2.0 * result.bob_bits) / math.sqrt(d)
            pre = (v < 0) != result.bob_bits.astype(bool)
            post = result.alice_bits != result.bob_bits
            _write_rows(out, [
                np.full(n_frames, d),
                range(n_frames),
                result.frame_success.astype(np.uint8),
                pre.reshape(n_frames, code.n_bits).sum(axis=1),
                post.reshape(n_frames, code.n_bits).sum(axis=1),
            ])
            if sigma > 0:
                from scipy import stats

                ks_p = stats.kstest(w, "norm", args=(0.0, sigma)).pvalue
            else:
                ks_p = float("nan")
            out.write(
                f"# summary d={d} frames={n_frames} "
                f"success_rate={repr(float(np.mean(result.frame_success)))} "
                f"beta_achieved={repr(result.beta_achieved)} "
                f"snr_hat={repr(result.snr_hat)} ks_p={repr(float(ks_p))}\n"
            )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Key-rate analysis and protocol simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kr = sub.add_parser("keyrate", help="sweep a variable and emit key-rate CSV")
    kr.add_argument("--sweep", choices=SWEEP_VARIABLES, required=True)
    kr.add_argument("--start", type=float, required=True)
    kr.add_argument("--stop", type=float, required=True)
    kr.add_argument("--steps", type=int, required=True)
    kr.add_argument("--scale", choices=("linear", "log"), default="linear")
    kr.add_argument("--d", default="1,8", help="comma list from {1,2,4,8,inf}")
    kr.add_argument("--va", type=float, default=0.5, help="fixed modulation variance")
    kr.add_argument("--xi", type=float, default=0.0)
    kr.add_argument("--eta", type=float, default=1.0)
    kr.add_argument("--eta-trusted", action="store_true")
    kr.add_argument("--beta", type=float, default=0.95)
    kr.add_argument("--transmittance", type=float, default=None)
    kr.add_argument("--distance-km", type=float, default=None)
    kr.add_argument("--detection", choices=("auto", "homodyne", "heterodyne"),
                    default="auto")
    kr.add_argument("--optimize-va", action="store_true")
    kr.add_argument("--va-min", type=float, default=0.05)
    kr.add_argument("--va-max", type=float, default=5.0)
    kr.add_argument("--out", default=None)
    kr.set_defaults(func=cmd_keyrate, parser=kr)

    sim = sub.add_parser("simulate", help="run one session from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="transcript output directory")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--n-symbols", type=int, default=None)
    sim.add_argument("--flow", choices=("gaussian-postselected", "decoy"),
                     default=None)
    sim.set_defaults(func=cmd_simulate, parser=sim)

    do = sub.add_parser("decoy-opt", help="design a decoy radius mixture")
    do.add_argument("--d", type=int, required=True)
    do.add_argument("--alpha", type=float, required=True)
    do.add_argument("--p", type=float, required=True)
    do.add_argument("--nmax", type=int, default=None)
    do.add_argument("--max-radii", type=int, default=12)
    do.add_argument("--out", default=None)
    do.set_defaults(func=cmd_decoy_opt, parser=do)

    rb = sub.add_parser("reconcile-bench", help="benchmark reconciliation codes")
    rb.add_argument("--d", default="8", help="comma list from {1,2,4,8}")
    rb.add_argument("--snr", type=float, default=1.0,
                    help="per-use SNR of the virtual channel (inf = noiseless)")
    rb.add_argument("--code", default="rep16", help="'identity' or 'repN'")
    rb.add_argument("--frames", type=int, default=100)
    rb.add_argument("--seed", type=int, default=0)
    rb.add_argument("--out", default=None)
    rb.set_defaults(func=cmd_reconcile_bench, parser=rb)

    return parser


def main(argv=None):
    """Run one command, mapping any failure it raises to one ``error:`` line and exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except decoy.InfeasibleDecoyError as exc:
        message, code = f"infeasible: {exc} (violating photon number {exc.photon_number})", 1
    except protocol.ProtocolError as exc:
        message, code = exc, 1
    except (ValueError, OSError) as exc:
        # ValueError covers ConfigError; OSError is an unreadable --config or an
        # unwritable --out, and its message names the path
        message, code = exc, 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
