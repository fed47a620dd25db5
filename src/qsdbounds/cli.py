"""Command line interface.

Subcommands: divergences, stein, hoeffding, chernoff, binary, oracle.
State inputs are JSON files {"dim": d, "matrix": [[[re, im], ...], ...]};
outputs are CSV tables and JSON reports written into the output directory
(--out, or the QSDBOUNDS_OUT environment variable, default the current
directory). Output bytes are deterministic for identical inputs. A process keeps
the state pairs of its recent requests, keyed by the files' bytes (`_load_pair`).

Exit codes: 0 success, 2 invalid input, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys
import threading

import numpy as np

from .classical_binary import BinaryPair, rate_curve
from .divergences import _psi_moments_rows, _state_pair, profile_from_curve
from .errors import QsdError, ResourceLimitError, ValidationError
from .exact_oracles import _max_copies, _oracle_errors, beta_eps_exact, quantum_mixed_error_exact
from .finite_bounds import (
    STEIN_VARIANTS,
    hoeffding_upper,
    mixed_upper,
    quantum_chernoff_lower,
    second_order_reference,
    stein_lower,
    stein_upper,
)
from .linalg import DIM_CAP, DensityMatrix, _eigh

_LN2 = math.log(2.0)
_PAIR_CACHE_SIZE = 16  # state pairs that `_load_pair` keeps, least recently used evicted
_PAIR_CACHE_BYTES = 65536  # largest total size of the two files of a pair that `_load_pair` keeps

_PAIRS: collections.OrderedDict = collections.OrderedDict()  # (rho bytes, sigma bytes) -> (rho, sigma)
_PAIRS_LOCK = threading.Lock()


def _read_state_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc


def parse_state_file(path: str) -> DensityMatrix:
    """Load a state from JSON, validating shape, Hermiticity, positivity and trace.

    Hermiticity must hold within 1e-9 and eigenvalues must exceed -1e-9
    (small negatives are clamped). A trace deviating from 1 by more than
    1e-6 is rejected; smaller deviations are renormalized, with a warning
    beyond 1e-9. The file is read and parsed on every call.
    """
    return _parse_state(path, _read_state_bytes(path))[0]


def _load_pair(rho_path: str, sigma_path: str) -> tuple[DensityMatrix, DensityMatrix]:
    """(rho, sigma) of two state files: the pair kept for exactly their bytes,
    or both parsed from the bytes just read, so a rewritten file is seen.

    A pair is kept, with the eigendecompositions and pair memo its states
    gather, when its files total at most _PAIR_CACHE_BYTES and neither parse
    warned; the _PAIR_CACHE_SIZE most recently used pairs are kept. Parsing
    runs outside the lock: threads that race on one key each parse, and all
    return the pair stored first. A parse that raises stores nothing.
    """
    key = (_read_state_bytes(rho_path), _read_state_bytes(sigma_path))
    with _PAIRS_LOCK:
        pair = _PAIRS.get(key)
        if pair is not None:
            _PAIRS.move_to_end(key)
            return pair
    (rho, rho_warned), (sigma, sigma_warned) = _parse_state(rho_path, key[0]), _parse_state(sigma_path, key[1])
    if rho_warned or sigma_warned or len(key[0]) + len(key[1]) > _PAIR_CACHE_BYTES:
        return rho, sigma
    with _PAIRS_LOCK:
        pair = _PAIRS.setdefault(key, (rho, sigma))
        _PAIRS.move_to_end(key)
        while len(_PAIRS) > _PAIR_CACHE_SIZE:
            _PAIRS.popitem(last=False)
    return pair


def _parse_state(path: str, raw: bytes) -> tuple[DensityMatrix, bool]:
    """(state, whether it was renormalized with a warning) of the bytes of the
    state file at path, validated as `parse_state_file` says."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    trace = float(np.trace(herm).real)
    # one eigendecomposition, of herm / trace, which the state keeps unless an eigenvalue
    # is clamped (a trace too far from 1 to renormalize fails below)
    scale = trace if abs(trace - 1.0) <= 1e-6 else 1.0
    state = herm / scale
    w, v = _eigh(state)
    if float(w[0]) * scale < -1e-9:
        raise ValidationError(
            f"state file {path}: negative eigenvalue {float(w[0]) * scale:.3e} beyond tolerance"
        )
    clamped = float(w[0]) < 0.0
    if clamped:  # a new matrix, which its state decomposes again
        herm = (v * (np.clip(w, 0.0, None) * scale)) @ v.conj().T
        herm = (herm + herm.conj().T) / 2.0
        trace = float(np.trace(herm).real)
    if abs(trace - 1.0) > 1e-6:
        raise ValidationError(f"state file {path}: trace {trace!r} deviates from 1 beyond 1e-6")
    warned = abs(trace - 1.0) > 1e-9
    if warned:
        print(f"warning: renormalizing {path}: trace was {trace!r}", file=sys.stderr)
    return DensityMatrix(herm / trace) if clamped else DensityMatrix._decomposed(state, w, v), warned


def _json_scalar(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return x


def _write_text(out_dir: str, name: str, text: str) -> None:
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    print(path)


def _write_csv(out_dir: str, name: str, header: str, *columns) -> None:
    """Write equal-length columns as CSV: a None or NaN cell is empty, an int
    (a bool included) is written by str, and any other number by %.17g,
    which gives every float back exactly and writes infinities as inf, -inf."""
    cells = [["" if x is None or x != x else str(x) if isinstance(x, int) else "%.17g" % x for x in column]
             for column in columns]
    _write_text(out_dir, name, "\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def _write_json(out_dir: str, name: str, payload: dict) -> None:
    cleaned = {k: _json_scalar(v) for k, v in payload.items()}
    _write_text(out_dir, name, json.dumps(cleaned, indent=2, sort_keys=True) + "\n")


def _cmd_divergences(args) -> int:
    rho, sigma = _load_pair(args.rho, args.sigma)
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
        columns = [[-math.inf] * ts.size, [None] * ts.size, [None] * ts.size]
    else:
        moments = _psi_moments_rows(curve, ts)
        moments /= unit
        columns = moments.T.tolist()
    _write_csv(args.out, "psi_curve.csv", "t,psi,psi_prime,psi_second", ts.tolist(), *columns)
    return 0


def _exact_rates(oracle, dim: int, n_max: int) -> list:
    """(1/n) log of one oracle call over the n = 1..n_max under the cap: -inf
    where the value is 0, and None, an empty cell, beyond the cap."""
    capped = range(1, min(n_max, _max_copies(dim)) + 1)
    values = oracle(capped).tolist()
    rates = [math.log(v) / n if v > 0.0 else -math.inf for n, v in zip(capped, values)]
    return rates + [None] * (n_max - len(capped))


def _cmd_stein(args) -> int:
    rho, sigma = _load_pair(args.rho, args.sigma)
    curve = _state_pair(rho, sigma)
    exact = _exact_rates(lambda capped: beta_eps_exact(rho, sigma, capped, args.eps), rho.dim, args.n_max)
    ns = range(1, args.n_max + 1)
    lower = stein_lower(curve, ns, args.eps, args.variant).bound_value.tolist()
    upper = stein_upper(curve, ns, args.eps, args.variant).bound_value.tolist()
    ref = second_order_reference(curve, ns, args.eps).bound_value.tolist()
    header = "n,lower,upper,exact_if_feasible,second_order_ref"
    _write_csv(args.out, "stein.csv", header, ns, lower, upper, exact, ref)
    return 0


def _cmd_hoeffding(args) -> int:
    rho, sigma = _load_pair(args.rho, args.sigma)
    curve = _state_pair(rho, sigma)
    ns = range(1, args.n_max + 1)
    upper = hoeffding_upper(curve, ns, args.r)
    if not upper.valid:
        raise ValidationError(f"hoeffding bound unavailable: {upper.reason}")
    t_r, h_r = upper.parameters["t_r"], upper.parameters["hoeffding_distance"]
    _write_csv(args.out, "hoeffding.csv", "n,upper,t_r,H_r", ns, upper.bound_value.tolist(),
               [t_r] * len(ns), [h_r] * len(ns))
    return 0


def _cmd_chernoff(args) -> int:
    rho, sigma = _load_pair(args.rho, args.sigma)
    curve = _state_pair(rho, sigma)
    ns = range(1, args.n_max + 1)
    upper = mixed_upper(curve, ns, 0.0).mixed.bound_value.tolist()
    exact = _exact_rates(lambda capped: quantum_mixed_error_exact(rho, sigma, capped, 0.0), rho.dim, args.n_max)
    lower = quantum_chernoff_lower(rho, sigma, ns).bound_value.tolist()
    header = "n,mixed_upper_rate,mixed_lower_rate_if_valid,exact_rate_if_feasible"
    _write_csv(args.out, "chernoff.csv", header, ns, upper, lower, exact)
    return 0


def _cmd_binary(args) -> int:
    bp = BinaryPair(args.p, args.q)
    rows = rate_curve(bp, args.a, args.n_max)
    _write_csv(args.out, "binary_rate.csv", "n,rate_exact,rate_lower,rate_upper,chernoff", *zip(*rows))
    return 0


def _cmd_oracle(args) -> int:
    rho, sigma = _load_pair(args.rho, args.sigma)
    mixed, test = _oracle_errors(rho, sigma, args.n, args.a)
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
