"""Command-line front end: gen, prune, verify, eval, sweep.

Machine-readable output (JSON, CSV) goes to stdout; diagnostics go to
stderr. Exit codes: 0 success, 1 pipeline or verification failure, 2 bad
flags or configuration.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, NMPruneError, VerificationError
from .graphs import ENUM_VERTEX_LIMIT, brute_force_expansion, degree_laws, mask_to_graph
from .harness import (
    METHODS,
    PROFILES,
    compare_methods,
    gen_synthetic,
    layout_blocks,
    norms_from_batch,
    prune_with_method,
    sweep_blocks,
)
from .masks import PruneConfig, apply_mask, count_mask
from .metrics import DEFAULT_ALPHA, ActivationNorms, BlockSource
from .permute import save_permutation, unpermute_mask
from .tensor_store import load_bundle, save_bundle, write_atomic


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


def _require(bundle, name: str) -> None:
    if name not in bundle:
        raise NMPruneError(f"input bundle has no tensor named {name!r}")


def _read_layer(args):
    """``W`` as the bundle's BlockSource, read anew on every pass, plus activation
    norms with --alpha and the calibration batch, both None when there is no ``Z``:
    a 1-D ``Z`` holds norms, a 2-D ``Z`` is a batch the norms are taken from."""
    if not np.isfinite(args.alpha):
        raise ConfigError("alpha must be finite")
    bundle = load_bundle(args.infile)
    _require(bundle, "W")
    w, z = bundle.rows("W"), bundle.get("Z")
    if z is not None and z.ndim == 1:
        return w, ActivationNorms(z, args.alpha), None
    if z is not None and z.ndim != 2:
        raise NMPruneError("activation tensor must be a norms vector or a channels x samples batch")
    return w, None if z is None else norms_from_batch(z, args.alpha), z


def _cmd_gen(args) -> int:
    f_out, f_in = args.dims
    w, z = gen_synthetic(args.seed, f_out, f_in, profile=args.profile, k=args.k)
    save_bundle({"W": w, "Z": z}, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_prune(args) -> int:
    cfg = PruneConfig(args.n, args.m, args.b)
    sidecar = args.out + ".perm.json"
    if os.path.isdir(sidecar) and not os.path.islink(sidecar):  # no sidecar step can succeed
        raise NMPruneError(f"cannot write {sidecar}: {os.strerror(errno.EISDIR)}")
    w, norms = _read_layer(args)[:2]  # the batch is freed here: prune needs only its norms
    # W is read twice: to score it, then to permute or prune it
    res = prune_with_method(w, norms, cfg, args.method)
    w, mask, perm = res.weights, np.asarray(res.mask, dtype=np.uint8), res.permutation
    pruned = (apply_mask(block, mask[rows]) for rows, block in layout_blocks(w, perm is not None))
    entries = {"mask": mask, "W_pruned": BlockSource(np.float32, mask.shape, pruned)}
    if perm is not None:  # both float32, for a uint8 W too: save_bundle casts block by block
        entries["W_perm"] = BlockSource(np.float32, mask.shape,
                                        (block for _, block in layout_blocks(w, True)))
        unpermuted = (unpermute_mask(block, perm) for _, block in layout_blocks(mask, True))
        entries["mask_unpermuted"] = BlockSource(np.uint8, mask.shape, unpermuted)
    save_bundle(entries, args.out)
    if perm is not None:
        save_permutation(perm, sidecar)
    else:  # a sidecar left by an earlier ria or eggs run would describe another mask
        try:
            Path(sidecar).unlink(missing_ok=True)
        except OSError as exc:
            raise NMPruneError(f"cannot write {sidecar}: {exc.strerror or exc}") from exc
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _fraction_pair(value):
    return None if value is None else [value.numerator, value.denominator]


def _cmd_verify(args) -> int:
    cfg = PruneConfig(args.n, args.m, args.b)
    bundle = load_bundle(args.infile)
    _require(bundle, "mask")
    # the mask is checked one row block at a time, and no other entry is read
    source = bundle.rows("mask")
    if len(source.shape) != 2:
        raise NMPruneError("mask tensor must be 2-D")
    counts = count_mask(source, cfg.n, cfg.m)
    laws = degree_laws(counts, cfg)
    violation = counts.nm_violation or laws.violation
    if violation:
        print(f"error: {violation}", file=sys.stderr)

    c = args.c if args.c is not None else laws.c_bound / 2
    a_in = a_out = skipped = None
    if not 0 < c < 1:
        c, skipped = None, "no admissible subset fraction"
    elif max(source.shape) > ENUM_VERTEX_LIMIT:
        skipped = f"a side exceeds {ENUM_VERTEX_LIMIT} vertices"
    else:
        try:
            report = brute_force_expansion(mask_to_graph(bundle["mask"]), c)
            a_in, a_out = report.a_in, report.a_out
        except VerificationError:  # count_mask has already named the entries
            skipped = "the mask is not binary"
    if skipped:
        print(f"expansion enumeration skipped: {skipped}", file=sys.stderr)

    print(json.dumps({
        "min_in_degree": laws.min_in_degree,
        "min_out_degree": laws.min_out_degree,
        "a_I": _fraction_pair(a_in),
        "a_O": _fraction_pair(a_out),
        "c": _fraction_pair(c),
        "lemma1_pass": violation is None,
    }))
    ok = violation is None and all(a is None or a > 1 for a in (a_in, a_out))
    return 0 if ok else 1


def _csv_row(*cells) -> str:
    """One CSV line: a float as its repr, a bool in lower case, None as an empty cell."""
    return ",".join("" if c is None else str(c).lower() if isinstance(c, bool) else str(c)
                    for c in cells)


def _report_doc(report) -> dict:
    """One eval report as JSON: ``lemma1_pass`` only where it is known."""
    doc = {
        "method": report.method,
        "error": report.error,
        "corrupted": report.corrupted,
        "retained_fraction": report.retained_fraction,
    }
    if report.lemma1_pass is not None:
        doc["lemma1_pass"] = report.lemma1_pass
    return doc


def _cmd_eval(args) -> int:
    cfg = PruneConfig(args.n, args.m, args.b)
    methods = [s.strip() for s in args.methods.split(",") if s.strip()]
    if not methods:
        raise ConfigError("no methods requested")
    w, norms, z = _read_layer(args)
    reports = compare_methods(w, norms, cfg, methods, z)
    print(json.dumps([_report_doc(r) for r in reports]))
    if args.csv:
        lines = [_csv_row("method", "error", "corrupted", "lemma1_pass")]
        lines += [_csv_row(r.method, r.error, r.corrupted, r.lemma1_pass) for r in reports]
        write_atomic(args.csv, [("\n".join(lines) + "\n").encode("utf-8")])
    return 0


def _cmd_sweep(args) -> int:
    b_lo, b_hi = args.b_range
    if b_lo < 0 or b_hi < b_lo:
        raise ConfigError(f"bad block-count range {b_lo}..{b_hi}")
    w, norms, z = _read_layer(args)
    bs = range(b_lo, b_hi + 1)
    reports = sweep_blocks(w, norms, args.n, args.m, bs, z)
    print(_csv_row("B", "error", "corrupted", "min_in_degree", "lemma1_pass"))
    for b, r in zip(bs, reports):
        print(_csv_row(b, r.error, r.corrupted, r.min_in_degree, r.lemma1_pass))
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
