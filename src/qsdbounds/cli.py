"""Command line interface.

Subcommands: divergences, stein, hoeffding, chernoff, binary, oracle.
State inputs are JSON files {"dim": d, "matrix": [[[re, im], ...], ...]};
outputs are CSV tables and JSON reports written into the output directory
(--out, or the QSDBOUNDS_OUT environment variable, default the current
directory). Output bytes are deterministic for identical inputs.

Exit codes: 0 success, 2 invalid input, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .classical_binary import BinaryPair, rate_curve
from .divergences import _psi_moments_rows, _state_pair, profile_from_curve
from .errors import QsdError, ResourceLimitError, ValidationError
from .exact_oracles import _within_cap, beta_eps_exact, np_test_errors, quantum_mixed_error_exact
from .finite_bounds import (
    STEIN_VARIANTS,
    hoeffding_upper,
    mixed_upper,
    quantum_chernoff_lower,
    second_order_reference,
    stein_lower,
    stein_upper,
)
from .linalg import DIM_CAP, DensityMatrix

_LN2 = math.log(2.0)


def parse_state_file(path: str) -> DensityMatrix:
    """Load a state from JSON, validating shape, Hermiticity, positivity and trace.

    Hermiticity must hold within 1e-9 and eigenvalues must exceed -1e-9
    (small negatives are clamped). A trace deviating from 1 by more than
    1e-6 is rejected; smaller deviations are renormalized, with a warning
    beyond 1e-9.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "matrix" not in data:
        raise ValidationError(f"state file {path} needs keys 'dim' and 'matrix'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"state file {path}: dim must be a positive integer, got {dim!r}")
    if dim > DIM_CAP:
        raise ResourceLimitError(f"state file {path}: dim {dim} exceeds cap {DIM_CAP}")
    try:
        raw = np.asarray(data["matrix"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"state file {path}: matrix entries must be [re, im] pairs") from exc
    if raw.shape != (dim, dim, 2):
        raise ValidationError(
            f"state file {path}: matrix shape {raw.shape} does not match (dim, dim, 2) for dim={dim}"
        )
    if not np.isfinite(raw).all():
        raise ValidationError(f"state file {path}: matrix has a non-finite entry")
    mat = raw[..., 0] + 1j * raw[..., 1]
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > 1e-9:
        raise ValidationError(f"state file {path}: not Hermitian, max deviation {herm_dev:.3e}")
    herm = (mat + mat.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    if float(w.min()) < -1e-9:
        raise ValidationError(
            f"state file {path}: negative eigenvalue {float(w.min()):.3e} beyond tolerance"
        )
    if float(w.min()) < 0.0:
        w = np.clip(w, 0.0, None)
        herm = (v * w) @ v.conj().T
        herm = (herm + herm.conj().T) / 2.0
    trace = float(np.trace(herm).real)
    if abs(trace - 1.0) > 1e-6:
        raise ValidationError(f"state file {path}: trace {trace!r} deviates from 1 beyond 1e-6")
    if abs(trace - 1.0) > 1e-9:
        print(f"warning: renormalizing {path}: trace was {trace!r}", file=sys.stderr)
    return DensityMatrix(herm / trace)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _json_scalar(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _write_text(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(path)


_CELL_FORMATS = {int: "%d", float: "%.17g"}


def _write_csv(out_dir: str, name: str, header: str, rows: list) -> None:
    """Write rows as CSV with the cells of `_fmt`.

    A row of ints and floats is formatted by one %-template per sequence of
    cell types, which writes the bytes `_fmt` writes for finite values; a
    row holding another type, NaN or an infinity goes through `_fmt` cell
    by cell.
    """
    lines = [header]
    templates: dict[tuple, str | None] = {}
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in templates:
            cells = [_CELL_FORMATS.get(kind) for kind in kinds]
            templates[kinds] = None if None in cells else ",".join(cells)
        template = templates[kinds]
        line = template % tuple(row) if template is not None else None
        if line is None or "n" in line:  # "nan", "inf": only _fmt writes them right
            line = ",".join(map(_fmt, row))
        lines.append(line)
    _write_text(out_dir, name, "\n".join(lines) + "\n")


def _write_json(out_dir: str, name: str, payload: dict) -> None:
    cleaned = {k: _json_scalar(v) for k, v in payload.items()}
    _write_text(out_dir, name, json.dumps(cleaned, indent=2, sort_keys=True) + "\n")


def _cmd_divergences(args) -> int:
    rho = parse_state_file(args.rho)
    sigma = parse_state_file(args.sigma)
    curve = _state_pair(rho, sigma)
    profile = profile_from_curve(curve)
    unit = _LN2 if args.bits else 1.0
    _write_json(
        args.out,
        "divergences.json",
        {
            "relative_entropy": profile.relative_entropy / unit,
            "chernoff": profile.chernoff / unit,
            "chernoff_argmin_t": profile.chernoff_argmin_t,
            "eta": profile.eta,
            "variance": profile.variance / unit**2,
            "units": "bits" if args.bits else "nats",
        },
    )
    ts = np.arange(101) / 100.0
    if curve.orthogonal_supports:
        rows = [[t, -math.inf, None, None] for t in ts.tolist()]
    else:
        moments = _psi_moments_rows(curve, ts)
        moments /= unit
        rows = [[t, *row] for t, row in zip(ts.tolist(), moments.tolist())]
    _write_csv(args.out, "psi_curve.csv", "t,psi,psi_prime,psi_second", rows)
    return 0


def _cmd_stein(args) -> int:
    rho = parse_state_file(args.rho)
    sigma = parse_state_file(args.sigma)
    curve = _state_pair(rho, sigma)

    ns = range(1, args.n_max + 1)
    capped = [n for n in ns if _within_cap(rho.dim, n)]
    betas = beta_eps_exact(rho, sigma, capped, args.eps).tolist()

    def row(n: int) -> list:
        lower = stein_lower(curve, n, args.eps, args.variant)
        upper = stein_upper(curve, n, args.eps, args.variant)
        if n > len(betas):  # beyond the oracle's cap the cell stays empty
            exact = None
        else:
            exact = math.log(betas[n - 1]) / n if betas[n - 1] > 0.0 else -math.inf
        ref = second_order_reference(curve, n, args.eps)
        return [
            n,
            lower.bound_value if lower.valid else None,
            upper.bound_value if upper.valid else None,
            exact,
            ref.bound_value if ref.valid else None,
        ]

    rows = [row(n) for n in ns]
    _write_csv(args.out, "stein.csv", "n,lower,upper,exact_if_feasible,second_order_ref", rows)
    return 0


def _cmd_hoeffding(args) -> int:
    rho = parse_state_file(args.rho)
    sigma = parse_state_file(args.sigma)
    curve = _state_pair(rho, sigma)
    first = hoeffding_upper(curve, 1, args.r)
    if not first.valid:
        raise ValidationError(f"hoeffding bound unavailable: {first.reason}")
    t_r = first.parameters["t_r"]
    h_r = first.parameters["hoeffding_distance"]
    rows = [
        [n, hoeffding_upper(curve, n, args.r).bound_value, t_r, h_r]
        for n in range(1, args.n_max + 1)
    ]
    _write_csv(args.out, "hoeffding.csv", "n,upper,t_r,H_r", rows)
    return 0


def _cmd_chernoff(args) -> int:
    rho = parse_state_file(args.rho)
    sigma = parse_state_file(args.sigma)
    curve = _state_pair(rho, sigma)
    # -phi(0) does not depend on n
    upper = mixed_upper(curve, 1, 0.0).mixed
    upper_rate = upper.bound_value if upper.valid else None

    def row(n: int) -> list:
        lower = quantum_chernoff_lower(rho, sigma, n)
        try:
            e_n = quantum_mixed_error_exact(rho, sigma, n, 0.0)
        except ResourceLimitError:  # beyond the oracle's cap the cell stays empty
            exact = None
        else:
            exact = math.log(e_n) / n if e_n > 0.0 else -math.inf
        return [n, upper_rate, lower.bound_value if lower.valid else None, exact]

    rows = [row(n) for n in range(1, args.n_max + 1)]
    _write_csv(
        args.out,
        "chernoff.csv",
        "n,mixed_upper_rate,mixed_lower_rate_if_valid,exact_rate_if_feasible",
        rows,
    )
    return 0


def _cmd_binary(args) -> int:
    bp = BinaryPair(args.p, args.q)
    rows = rate_curve(bp, args.a, args.n_max)
    _write_csv(args.out, "binary_rate.csv", "n,rate_exact,rate_lower,rate_upper,chernoff", rows)
    return 0


def _cmd_oracle(args) -> int:
    rho = parse_state_file(args.rho)
    sigma = parse_state_file(args.sigma)
    mixed = quantum_mixed_error_exact(rho, sigma, args.n, args.a)
    test = np_test_errors(rho, sigma, args.n, args.a)
    _write_json(
        args.out,
        "oracle.json",
        {
            "n": args.n,
            "a": args.a,
            "e_n": mixed,
            "alpha": test.alpha,
            "beta": test.beta,
            "degenerate_kernel_flag": test.degenerate_kernel,
        },
    )
    return 0


def _add_state_args(sub) -> None:
    sub.add_argument("--rho", required=True, help="JSON state file for the null state")
    sub.add_argument("--sigma", required=True, help="JSON state file for the alternative state")


def _add_common_args(sub) -> None:
    sub.add_argument("--out", default=None,
                     help="output directory (default: QSDBOUNDS_OUT or '.')")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdbounds",
        description="Finite-sample error bounds for binary quantum state discrimination.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("divergences", help="divergence profile and psi curve")
    _add_state_args(p)
    p.add_argument("--bits", action="store_true", help="report entropic quantities in bits")
    _add_common_args(p)
    p.set_defaults(func=_cmd_divergences)

    p = subs.add_parser("stein", help="type-II rate bounds at fixed type-I budget eps")
    _add_state_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--variant", choices=STEIN_VARIANTS, default="as_derived")
    _add_common_args(p)
    p.set_defaults(func=_cmd_stein)

    p = subs.add_parser("hoeffding", help="type-II rate bound at exponential type-I budget")
    _add_state_args(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=_cmd_hoeffding)

    p = subs.add_parser("chernoff", help="symmetric mixed-error rate bounds")
    _add_state_args(p)
    p.add_argument("--n-max", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=_cmd_chernoff)

    p = subs.add_parser("binary", help="binary classical rate curve")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--n-max", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=_cmd_binary)

    p = subs.add_parser("oracle", help="exact errors at one (n, a)")
    _add_state_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    _add_common_args(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first request of the process and reused after."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.out is None:  # read at every request, so a changed QSDBOUNDS_OUT applies
        args.out = os.environ.get("QSDBOUNDS_OUT", ".")
    try:
        if getattr(args, "n_max", 1) < 1:  # every n-sweep subcommand
            raise ValidationError(f"need n_max >= 1, got {args.n_max}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except QsdError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
