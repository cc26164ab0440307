"""Command-line front end: gen, prune, verify, eval, sweep.

Machine-readable output (JSON, CSV) goes to stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 pipeline or verification failure, 2 bad
flags or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NMPruneError, VerificationError
from .graphs import (
    ENUM_VERTEX_LIMIT,
    brute_force_expansion,
    mask_to_graph,
    verify_degree_laws,
)
from .harness import (
    METHODS,
    PROFILES,
    compare_methods,
    gen_synthetic,
    norms_from_batch,
    prune_with_method,
    reports_to_csv,
    reports_to_json,
    sweep_blocks,
)
from .masks import PruneConfig, apply_mask, check_nm_pattern
from .metrics import DEFAULT_ALPHA, ActivationNorms, row_blocks
from .permute import save_permutation, unpermute_mask
from .tensor_store import BlockSource, load_bundle, save_bundle


def _pair(sep: str, form: str, build):
    """argparse type for ``A<sep>B``: both sides as ints, passed to ``build``."""
    def parse(text: str):
        a, found, b = text.lower().partition(sep)
        try:
            if found:
                return build(int(a), int(b))
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


def _fetch(bundle: dict, name: str):
    if name not in bundle:
        raise NMPruneError(f"input bundle has no tensor named {name!r}")
    return bundle[name]


def _read_acts(bundle: dict, alpha: float):
    """Activation norms with --alpha, and the calibration batch or None: a 1-D
    ``Z`` holds norms, a 2-D ``Z`` is a batch the norms are taken from."""
    arr = _fetch(bundle, "Z")
    if arr.ndim == 1:
        return ActivationNorms(arr, alpha), None
    if arr.ndim == 2:
        return norms_from_batch(arr, alpha), arr
    raise NMPruneError("activation tensor must be a norms vector or a channels x samples batch")


def _config(args) -> PruneConfig:
    """prune's and eval's config; alpha is checked even where no norms are built."""
    cfg = PruneConfig(args.n, args.m, args.b)
    if not np.isfinite(args.alpha):
        raise ConfigError("alpha must be finite")
    return cfg


def _cmd_gen(args) -> int:
    f_out, f_in = args.dims
    w, z = gen_synthetic(args.seed, f_out, f_in, profile=args.profile, k=args.k)
    save_bundle({"W": w, "Z": z}, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_prune(args) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.infile)
    _fetch(bundle, "W")
    norms = None if args.method == "magnitude" else _read_acts(bundle, args.alpha)[0]
    # the bundle gives up W, so W_perm can replace it in memory
    res = prune_with_method(bundle.pop("W"), norms, cfg, args.method)
    w, mask, perm = res.weights, np.asarray(res.mask, dtype=np.uint8), res.permutation
    rows = row_blocks(*w.shape)
    entries = {
        "mask": mask,
        "W_pruned": BlockSource(np.float32, w.shape, (apply_mask(w[r], mask[r]) for r in rows)),
    }
    if perm is not None:
        entries["W_perm"] = np.asarray(w, dtype=np.float32)
        entries["mask_unpermuted"] = BlockSource(np.uint8, mask.shape,
                                                 (unpermute_mask(mask[r], perm) for r in rows))
    save_bundle(entries, args.out)
    if perm is not None:
        save_permutation(perm, args.out + ".perm.json")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _fraction_pair(value):
    return None if value is None else [value.numerator, value.denominator]


def _cmd_verify(args) -> int:
    cfg = PruneConfig(args.n, args.m, args.b)
    # only the mask is kept: the bundle's other entries are freed at once
    arr = np.asarray(_fetch(load_bundle(args.infile), "mask"))
    if arr.ndim != 2:
        raise NMPruneError("mask tensor must be 2-D")
    f_out, f_in = arr.shape

    violation = None
    try:
        check_nm_pattern(arr, cfg.n, cfg.m)
    except VerificationError as exc:
        violation = str(exc)
    laws = verify_degree_laws(arr, cfg)
    violation = violation or laws.violation
    if violation:
        print(f"error: {violation}", file=sys.stderr)
    ok = lemma_pass = violation is None

    c = args.c if args.c is not None else (laws.c_bound / 2 if laws.c_bound > 0 else None)
    a_in = a_out = None
    if c is None or not 0 < c < 1:
        print("expansion enumeration skipped: no admissible subset fraction", file=sys.stderr)
        c = None
    elif f_in > ENUM_VERTEX_LIMIT or f_out > ENUM_VERTEX_LIMIT:
        print(
            f"expansion enumeration skipped: a side exceeds {ENUM_VERTEX_LIMIT} vertices",
            file=sys.stderr,
        )
    else:
        try:
            graph = mask_to_graph(arr)
        except VerificationError:
            # check_nm_pattern has already reported the non-binary entries
            print("expansion enumeration skipped: the mask is not binary", file=sys.stderr)
        else:
            report = brute_force_expansion(graph, c)
            a_in, a_out = report.a_in, report.a_out
            ok = ok and (a_in is None or a_in > 1) and (a_out is None or a_out > 1)

    print(json.dumps({
        "min_in_degree": laws.min_in_degree,
        "min_out_degree": laws.min_out_degree,
        "a_I": _fraction_pair(a_in),
        "a_O": _fraction_pair(a_out),
        "c": _fraction_pair(c),
        "lemma1_pass": lemma_pass,
    }))
    return 0 if ok else 1


def _cmd_eval(args) -> int:
    cfg = _config(args)
    methods = [s.strip() for s in args.methods.split(",") if s.strip()]
    if not methods:
        raise ConfigError("no methods requested")
    bundle = load_bundle(args.infile)
    w = _fetch(bundle, "W")
    norms, z = None, None
    if any(m != "magnitude" for m in methods):
        norms, z = _read_acts(bundle, args.alpha)
    reports = compare_methods(w, norms, cfg, methods, z)
    print(reports_to_json(reports))
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(reports_to_csv(reports))
        except OSError as exc:
            raise NMPruneError(f"cannot write {args.csv}: {exc}") from exc
    return 0


def _cmd_sweep(args) -> int:
    b_lo, b_hi = args.b_range
    if b_lo < 0 or b_hi < b_lo:
        raise ConfigError(f"bad block-count range {b_lo}..{b_hi}")
    bundle = load_bundle(args.infile)
    w = _fetch(bundle, "W")
    norms, z = _read_acts(bundle, args.alpha)
    bs = range(b_lo, b_hi + 1)
    rows = ["B,error,corrupted,min_in_degree,lemma1_pass"]
    for b, r in zip(bs, sweep_blocks(w, norms, args.n, args.m, bs, z)):
        rows.append(f"{b},{r.error!r},{r.corrupted},{r.min_in_degree},"
                    f"{str(r.lemma1_pass).lower()}")
    print("\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmprune",
        description="Build, verify, and evaluate hardware-aligned N:M pruning masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nm(p, b_default):
        p.add_argument("--n", type=int, required=True, help="zeros per window of M")
        p.add_argument("--m", type=int, required=True, help="window width (even)")
        p.add_argument("--b", type=int, default=b_default,
                       help="connectivity blocks per pruning group")

    p = sub.add_parser("gen", help="write a synthetic layer bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=_pair("x", "ROWSxCOLS", lambda *rc: rc), required=True,
                   metavar="RxC")
    p.add_argument("--profile", choices=PROFILES, default="gaussian")
    p.add_argument("--k", type=int, default=1, help="dead column count for dead-columns")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("prune", help="prune one layer bundle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    add_nm(p, b_default=1)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("verify", help="check a mask's window counts, degree laws, and expansion")
    p.add_argument("--in", dest="infile", required=True)
    add_nm(p, b_default=0)
    p.add_argument("--c", type=_pair("/", "NUM/DEN", Fraction), default=None, metavar="NUM/DEN",
                   help="subset fraction for expansion enumeration")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="compare pruning methods on one layer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--methods", default=",".join(METHODS))
    add_nm(p, b_default=1)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--csv", default=None, help="also write a CSV summary here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run the connectivity method across a range of block counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--b-range", dest="b_range", type=_pair("..", "LO..HI", lambda *lohi: lohi),
                   required=True, metavar="LO..HI")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """``warning: <msg>``, without the source location, so stderr does not
    change when the code that warns moves."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    old_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NMPruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = old_format


if __name__ == "__main__":
    sys.exit(main())
