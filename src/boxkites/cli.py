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

from .lariats import STRUT_SYMBOLS
from .render import FLAGS, FORMATS, MAX_WHOLE_LEVEL_N, REGISTRY, TARGETS, RenderSpec, Target
from .render import emit_chunks, field_readers, json_text
from .verify import SECTIONS, run_verification


def _dim_exponent(text: str) -> int:
    """``--dim`` = 2^n as its exponent n; ``RenderSpec`` judges the level."""
    dim = int(text) if text.isdecimal() else 0
    n = dim.bit_length() - 1
    if dim <= 0 or 1 << n != dim:
        raise argparse.ArgumentTypeError(f"must be a power of two; got {text}")
    return n


def _s_range(text: str) -> tuple[int, ...]:
    """The strut constants ``text`` names, each piece cut to its first
    2^(MAX_WHOLE_LEVEL_N - 1) values; a piece that selects none is refused
    by name.  ``RenderSpec`` refuses what the cut keeps of a longer piece: a
    value out of range at a level searched whole, and too many values to
    search above it."""
    cut = 1 << (MAX_WHOLE_LEVEL_N - 1)
    values: list[int] = []
    try:
        for piece in text.split(","):
            if "-" in piece:
                lo, hi = map(int, piece.split("-"))
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"{piece!r} selects no strut constant")
                values.extend(range(lo, min(hi + 1, lo + cut)))
            else:
                values.append(int(piece))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; use forms like 1-8,17") from None
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    """The parser; an emit flag not given is absent, so ``RenderSpec``'s
    default applies, and each one sets the request field its dest names."""
    parser = argparse.ArgumentParser(
        prog="boxkites",
        description="Exact zero-divisor structure of Cayley-Dickson algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="render a structure", argument_default=argparse.SUPPRESS)
    emit.add_argument("target", choices=TARGETS)
    read_by = {name: " or ".join(field_readers(name)) for name in FLAGS}
    dims = "".join(f"; {t.default_dim} for {name}" for name, t in REGISTRY.items()
                   if t.default_dim != Target.default_dim)
    emit.add_argument(FLAGS["n"], dest="n", type=_dim_exponent,
                      help=f"algebra dimension (a power of two, default {Target.default_dim}{dims})")
    emit.add_argument(FLAGS["s"], dest="s", type=int, help=f"strut constant s (default {RenderSpec.s})")
    emit.add_argument(FLAGS["strut"], dest="strut", choices=tuple(STRUT_SYMBOLS),
                      help=f"strut pair for {read_by['strut']} tables (default {RenderSpec.strut})")
    emit.add_argument(FLAGS["s_values"], dest="s_values", type=_s_range,
                      help=f"strut constants for {read_by['s_values']}, e.g. 1-8,17")
    emit.add_argument(FLAGS["failures_only"], dest="failures_only", action="store_true",
                      help=f"{read_by['failures_only']}: list only the failing kites")
    emit.add_argument("--format", choices=FORMATS, help=f"output format (default {RenderSpec.format})")
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
        request = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
        try:
            spec = RenderSpec(**request)
            _check_out(parser, args.out)
            chunks = emit_chunks(spec)
        except ValueError as exc:
            parser.error(str(exc))
        _write(parser, chunks, args.out)
        return 0

    # an empty list names the unknown section ""
    sections = args.sections.split(",") if args.sections is not None else None
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
