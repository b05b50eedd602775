"""Command line: emit any structure as a table, or run the verification suite.

Exit status contract: 0 all checks pass (or emission succeeded), 1 some
check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Iterable

from .render import FORMATS, MAX_WHOLE_LEVEL_N, REGISTRY, TARGETS, RenderSpec, emit_chunks, json_text
from .verify import SECTIONS, run_verification


def _dim_exponent(parser: argparse.ArgumentParser, dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim or n < 4:
        parser.error(f"--dim must be a power of two, at least 16; got {dim}")
    return n


def _parse_s_range(parser: argparse.ArgumentParser, text: str, n: int) -> tuple[int, ...]:
    """The strut constants ``text`` names, each piece cut to its first
    2^(min(n, MAX_WHOLE_LEVEL_N) - 1) values.  ``RenderSpec`` refuses what the
    cut keeps of a longer piece: a value out of range up to that level, and
    too many values to search above it."""
    cut = 1 << (min(n, MAX_WHOLE_LEVEL_N) - 1)
    values: set[int] = set()
    try:
        for piece in text.split(","):
            if "-" in piece:
                lo, hi = map(int, piece.split("-"))
                values.update(range(lo, min(hi + 1, lo + cut)))
            else:
                values.add(int(piece))
    except ValueError:
        parser.error(f"bad --s-range {text!r}; use forms like 1-8,17")
    if not values:
        parser.error(f"--s-range {text!r} selects no strut constant")
    return tuple(sorted(values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxkites",
        description="Exact zero-divisor structure of Cayley-Dickson algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="render a structure")
    emit.add_argument("target", choices=TARGETS)
    emit.add_argument("--dim", type=int, default=None,
                      help="algebra dimension (a power of two, default 16; 32 for pathion)")
    emit.add_argument("--strut", type=int, default=1, help="strut constant s (default 1)")
    emit.add_argument("--strut-pair", choices=("AF", "BE", "CD"), default="AF",
                      help="strut pair for mock tables")
    emit.add_argument("--s-range", default=None,
                      help="strut constants for tripsync, e.g. 1-8,17")
    emit.add_argument("--failures-only", action="store_true",
                      help="tripsync: list only the failing kites")
    emit.add_argument("--format", choices=FORMATS, default="markdown")
    emit.add_argument("--out", default=None, help="output path (default stdout)")

    verify = sub.add_parser("verify", help="run the golden-fixture suite")
    verify.add_argument("--sections", default=None,
                        help=f"comma list from: {','.join(SECTIONS)}")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def _check_out(parser: argparse.ArgumentParser, out: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work,
    creating and truncating nothing; ``_write`` reports a later failure."""
    if out is None or out == "-":
        return
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        parser.error(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        code = errno.EACCES if os.path.isdir(parent) else errno.ENOENT
        parser.error(f"cannot write {out}: {os.strerror(code)}")


def _write(parser: argparse.ArgumentParser, chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks as they come; a failure part-way is a usage error."""
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        parser.error(f"cannot write {out}: {exc.strerror or exc}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "emit":
        default_dim = REGISTRY[args.target].default_dim
        n = _dim_exponent(parser, args.dim if args.dim is not None else default_dim)
        s_values = _parse_s_range(parser, args.s_range, n) if args.s_range is not None else ()
        try:
            spec = RenderSpec(
                target=args.target,
                format=args.format,
                n=n,
                s=args.strut,
                strut=args.strut_pair,
                s_values=s_values,
                failures_only=args.failures_only,
            )
            _check_out(parser, args.out)
            chunks = emit_chunks(spec)
        except ValueError as exc:
            parser.error(str(exc))
        _write(parser, chunks, args.out)
        return 0

    sections = args.sections.split(",") if args.sections else None
    _check_out(parser, args.out)
    try:
        report = run_verification(sections)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        _write(parser, [json_text(report.to_payload())], args.out)
    else:
        _write(parser, ["\n".join(report.lines()) + "\n"], args.out)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
