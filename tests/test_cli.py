"""Command line and renderer contracts: determinism, round trips, exits."""

import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import boxkites
from boxkites import cli, emanation, render
from boxkites.cli import main
from boxkites.kites import LETTERS, Assessor, build_box_kite
from boxkites.lariats import STRUT_SYMBOLS, switching_yard
from boxkites.render import (
    TARGETS,
    RenderSpec,
    box_kite_payload,
    cmd_emit,
    json_text,
    parse_box_kite,
)
from boxkites.verify import SECTIONS, run_verification


SEDENION_TARGETS = ("strut-table", "yard", "mock", "quizzical", "sync-table")


def emit(capsys, *argv):
    code = main(["emit", *argv])
    out = capsys.readouterr().out
    return code, out


def cli_peak(*argv):
    """The command line's exit code, stdout, stderr and peak RSS in kilobytes
    (``ru_maxrss`` on Linux).  A small parent reads the peak, so the fork
    that starts the command does not count the pages of the test process."""
    probe = (
        "import json, resource, subprocess, sys\n"
        "run = subprocess.run(sys.argv[1:], capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([run.returncode, run.stdout, run.stderr, peak]))\n"
    )
    src = str(Path(boxkites.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probed = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "boxkites.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(probed.stdout)


class TestEmit:
    def test_strut_table_markdown(self, capsys):
        code, out = emit(capsys, "strut-table")
        assert code == 0
        assert "| I | 7 6 4 5 | 3,10 | 6,15 | 5,12 | 4,13 | 7,14 | 2,11 |" in out

    def test_yard_json_cells(self, capsys):
        code, out = emit(capsys, "yard", "--strut", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["symbols"][:4] == ["R", "8", "X", "S"]
        assert payload["cells"][4][8] == "-c"
        assert payload["cells"][4][10] == "0"

    def test_box_kite_json_vertices(self, capsys):
        code, out = emit(capsys, "box-kite", "--strut", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["vertices"]["A"] == [3, 10]
        assert payload["struts"] == [["A", "F"], ["B", "E"], ["C", "D"]]

    def test_box_kite_dot(self, capsys):
        code, out = emit(capsys, "box-kite", "--strut", "1", "--format", "dot")
        assert out.startswith("graph zd_4_1 {")
        assert '"3_10" -- "6_15" [sign="-"];' in out

    def test_census_markdown_flags_discrepancy(self, capsys):
        code, out = emit(capsys, "census", "--dim", "32")
        assert "| total | 77 |" in out
        assert "84" in out and "77" in out

    def test_tripsync_range(self, capsys):
        code, out = emit(capsys, "tripsync", "--dim", "32", "--s-range", "1-2,9")
        assert code == 0
        assert "overall: pass over 17 kites" in out

    def test_tripsync_failures_only_hides_passing_rows(self, capsys):
        code, out = emit(capsys, "tripsync", "--dim", "64", "--s-range", "25", "--failures-only")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| 25 |")]
        assert len(rows) == 56 and all("| FAIL |" in row for row in rows)
        assert out.endswith("overall: FAIL over 87 kites\n")

    def test_tripsync_failures_only_json_counts_whole_sweep(self, capsys):
        code, out = emit(capsys, "tripsync", "--dim", "32", "--s-range", "1",
                         "--failures-only", "--format", "json")
        payload = json.loads(out)
        assert payload["kites"] == []
        assert payload["all_passed"] is True and payload["kite_count"] == 7

    @pytest.mark.parametrize("s_range", ["5-3", "1,5-3", "", "1-2-3", "x"])
    def test_usage_error_empty_or_bad_s_range(self, s_range, capsys):
        with pytest.raises(SystemExit) as err:
            main(["emit", "tripsync", "--dim", "32", "--s-range", s_range])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_s_range_names_the_piece_that_selects_none(self, capsys):
        with pytest.raises(SystemExit):
            main(["emit", "tripsync", "--dim", "32", "--s-range", "1,5-3,7"])
        assert "argument --s-range: '5-3' selects no strut constant" in capsys.readouterr().err

    def test_pathion_table(self, capsys):
        code, out = emit(capsys, "pathion", "--strut", "9")
        assert "| 1 | 2,27 | 8,17 | 10,19 | 3,26 | 1,24 | 11,18 |" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.md"
        code = main(["emit", "strut-table", "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("| Box-Kite |")

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "census.txt"
        with pytest.raises(SystemExit) as err:
            main(["emit", "census", "--dim", "64", "--out", str(target)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {target}: " in captured.err
        assert not target.parent.exists()

    def test_unwritable_out_refused_before_any_search(self, tmp_path, capsys, monkeypatch):
        def no_search(n, s):
            raise AssertionError(f"graph of ({n}, {s}) built")

        monkeypatch.setattr(emanation, "zd_graph", no_search)
        target = tmp_path / "missing" / "x.txt"
        with pytest.raises(SystemExit) as err:
            main(["emit", "census", "--dim", "256", "--out", str(target)])
        assert err.value.code == 2
        assert f"cannot write {target}: No such file or directory" in capsys.readouterr().err

    def test_directory_out_refused_and_left_alone(self, tmp_path, capsys):
        kept = tmp_path / "kept.txt"
        kept.write_text("kept")
        with pytest.raises(SystemExit) as err:
            main(["emit", "strut-table", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert f"cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["kept.txt"]
        assert kept.read_text() == "kept"

    def test_usage_error_bad_dim(self):
        with pytest.raises(SystemExit) as err:
            main(["emit", "box-kite", "--dim", "24"])
        assert err.value.code == 2

    def test_usage_error_bad_strut(self):
        with pytest.raises(SystemExit) as err:
            main(["emit", "yard", "--strut", "9"])
        assert err.value.code == 2

    def test_usage_error_bad_target(self):
        with pytest.raises(SystemExit) as err:
            main(["emit", "nonesuch"])
        assert err.value.code == 2

    def test_yard_requires_dim_16(self):
        with pytest.raises(SystemExit) as err:
            main(["emit", "yard", "--dim", "32"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["census", "--dim", "512"],
        ["census", "--dim", "1024", "--s-range", "1"],
        ["tripsync", "--dim", "512"],
        # 4,215 digits: the refusal formats no count past Python's 4,300-digit limit
        ["pathion", "--dim", str(1 << 14000), "--strut", "3"],
        ["census", "--dim", str(1 << 14000)],
        ["tripsync", "--dim", str(1 << 14000)],
    ])
    def test_whole_level_past_n8_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["emit", *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "largest dimension searched whole is 256" in captured.err

    @pytest.mark.parametrize("flags", [["--s-range", "1"], ["--failures-only"]])
    @pytest.mark.parametrize("target", [t for t in TARGETS if t != "tripsync"])
    def test_sweep_flags_refused_off_tripsync(self, target, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["emit", target, *flags])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "only the tripsync target takes them" in captured.err

    def test_tripsync_s_range_past_n8_runs(self, capsys):
        code, out = emit(capsys, "tripsync", "--dim", "512", "--s-range", "129")
        assert code == 0
        assert out.endswith("overall: pass over 63 kites\n")

    @pytest.mark.parametrize("argv", [
        *[[target, "--dim", "32"] for target in SEDENION_TARGETS],
        *[[target, "--strut", "3"] for target in ("strut-table", "sync-table", "census", "tripsync")],
        *[[target, "--strut-pair", "BE"] for target in TARGETS if target != "mock"],
    ])
    def test_unread_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["emit", *argv])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"reads no {argv[1]} values" in captured.err

    @pytest.mark.parametrize("strut", ["0", "-1"])
    @pytest.mark.parametrize("target", ["box-kite", "yard", "mock", "quizzical", "pathion"])
    def test_strut_below_range_refused(self, target, strut, capsys):
        with pytest.raises(SystemExit) as err:
            main(["emit", target, "--strut", strut])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["box-kite", "--dim", "8192"],
        ["pathion", "--dim", "4096", "--format", "dot"],
        ["tripsync", "--dim", "1024", "--s-range", "1-511"],
        ["tripsync", "--dim", "128", "--s-range", "1-63,64"],
        ["tripsync", "--dim", "32", "--strut", "9"],
        ["census", "--dim", "32", "--strut", "5"],
        ["yard", "--strut-pair", "BE"],
        ["census", "--dim", "8"],
        ["yard", "--dim", "8"],
        ["tripsync", "--dim", "1", "--s-range", "1"],
        ["tripsync", "--dim", "1"],
    ])
    def test_refused_before_any_search(self, argv, capsys, monkeypatch):
        def no_search(n, s):
            raise AssertionError(f"graph of ({n}, {s}) built")

        monkeypatch.setattr(emanation, "zd_graph", no_search)
        monkeypatch.setattr(render, "zd_graph", no_search)
        with pytest.raises(AssertionError):
            main(["emit", "pathion", "--strut", "9"])
        with pytest.raises(SystemExit) as err:
            main(["emit", *argv])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("dim,message", [
        ("128", "strut constants at dimension 128 lie strictly between 0 and 64"),
        (str(1 << 40), "largest dimension searched whole is 256"),
    ])
    def test_huge_s_range_refused_without_expanding_it(self, dim, message):
        # a piece is cut to at most 128 values before RenderSpec sees it;
        # whole, these two million values took 173 MB just to be refused
        code, out, err, peak_kb = cli_peak("emit", "tripsync", "--dim", dim, "--s-range", "1-2000000")
        assert (code, out) == (2, "")
        assert message in err
        assert peak_kb < 64 * 1024

    @pytest.mark.parametrize("target", TARGETS)
    def test_request_without_flags_is_the_command_without_flags(self, target, capsys):
        code, out = emit(capsys, target)
        assert (code, out) == (0, cmd_emit(RenderSpec(target)))

    def test_box_kite_builds_only_the_first_kite(self, monkeypatch):
        first = emanation.find_box_kites(6, 5)[0]
        labelled = []

        def counted(n, s, lows, label=emanation._label_kite):
            labelled.append(lows)
            return label(n, s, lows)

        monkeypatch.setattr(render, "_label_kite", counted)
        assert cmd_emit(RenderSpec("box-kite", "json", n=6, s=5)) == json_text(box_kite_payload(first))
        assert len(labelled) == 1

    def test_box_kite_builds_only_its_six_assessors(self, monkeypatch):
        built = []
        check = Assessor.__post_init__

        def counted(self):
            built.append(self.indices)
            check(self)

        monkeypatch.setattr(Assessor, "__post_init__", counted)
        payload = json.loads(cmd_emit(RenderSpec("box-kite", "json", n=11, s=1)))
        assert built == [tuple(payload["vertices"][p]) for p in LETTERS]

    def test_no_box_kite_is_refused(self, monkeypatch):
        monkeypatch.setattr(render, "_kite_lows", lambda n, s: iter(()))
        with pytest.raises(ValueError, match=r"^no box-kite found for n=5, s=9$"):
            cmd_emit(RenderSpec("box-kite", "json", n=5, s=9))

    def test_sedenion_box_kite_is_the_constructed_one(self):
        for s in range(1, 8):
            spec = RenderSpec("box-kite", "json", s=s)
            assert cmd_emit(spec) == json_text(box_kite_payload(build_box_kite(s)))


class TestRenderSpec:
    def test_largest_accepted_searches(self):
        RenderSpec("pathion", n=11, s=1)
        RenderSpec("tripsync", n=8)

    @pytest.mark.parametrize("spec", [
        {"target": "box-kite", "n": 12},
        {"target": "pathion", "n": 12, "format": "dot"},
        {"target": "census", "n": 9},
        {"target": "tripsync", "n": 9},
        {"target": "tripsync", "n": 9, "s_values": tuple(range(1, 33))},
        {"target": "pathion", "n": 20000, "s": 3},
        {"target": "census", "n": 20000},
        {"target": "tripsync", "n": 20000},
    ])
    def test_search_past_the_bound_refused(self, spec):
        with pytest.raises(ValueError, match="largest dimension searched whole is 256"):
            RenderSpec(**spec)

    def test_default_level_is_the_targets(self):
        assert {t: RenderSpec(t).n for t in TARGETS} == {
            t: render.REGISTRY[t].default_dim.bit_length() - 1 for t in TARGETS
        }
        assert RenderSpec("pathion").n == 5 and RenderSpec("census").n == 4

    def test_pair_bound_counts_distinct_strut_constants(self):
        assert RenderSpec("tripsync", n=9, s_values=(1,) * 40).s_values == (1,)

    def test_strut_constants_sorted_and_distinct(self):
        spec = RenderSpec("tripsync", n=6, s_values=(3, 1, 3))
        assert spec.s_values == (1, 3)
        assert cmd_emit(spec) == cmd_emit(RenderSpec("tripsync", n=6, s_values=(1, 3)))
        assert RenderSpec("tripsync", n=5).s_values == tuple(range(1, 16))

    def test_defaults(self):
        assert RenderSpec("box-kite").s == 1
        assert RenderSpec("mock", s=2).strut == "AF"
        assert RenderSpec("census").s == 1

    @pytest.mark.parametrize("spec", [
        {"target": "census", "s": 3},
        {"target": "box-kite", "strut": "CD"},
        {"target": "yard", "n": 5},
        {"target": "pathion", "n": 5, "failures_only": True},
        {"target": "yard", "n": 0},
        {"target": "yard", "n": -1},
    ])
    def test_unread_field_refused(self, spec):
        with pytest.raises(ValueError, match="reads no"):
            RenderSpec(**spec)

    @pytest.mark.parametrize("n", [3, 0, -1])
    @pytest.mark.parametrize("target,fmt", [
        ("census", "markdown"), ("pathion", "markdown"), ("tripsync", "json"),
    ])
    def test_dimension_below_sedenions_refused(self, target, fmt, n):
        # refused by the request check itself, so not one chunk is written
        chunks = []
        message = rf"starts at the sedenions: n must be at least 4 \(dimension 16\); got n = {n}$"
        with pytest.raises(ValueError, match=message):
            chunks.extend(render.emit_chunks(RenderSpec(target, fmt, n=n)))
        assert chunks == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            RenderSpec("strut-table", "markdown"),
            RenderSpec("yard", "csv", s=3),
            RenderSpec("sync-table", "json"),
            RenderSpec("mock", "json", s=2, strut="BE"),
            RenderSpec("quizzical", "markdown", s=5),
            RenderSpec("pathion", "json", n=5, s=9),
            RenderSpec("census", "json", n=5),
            RenderSpec("box-kite", "dot", n=4, s=1),
            RenderSpec("tripsync", "csv", n=4, s_values=(1, 2, 3)),
        ],
    )
    def test_byte_identical_across_runs(self, spec):
        assert cmd_emit(spec) == cmd_emit(spec)


def swept_entries(report):
    """Every entry of the report's sweep, s by s, from ``sweep_entries``; the
    report's tally is checked against them."""
    entries = [e for s in report.s_values for e in emanation.sweep_entries(report.n, s)]
    assert report.kite_count == len(entries)
    assert report.failures == sum(not e.passed for e in entries)
    return entries


def materialised_sweep(spec, report=None, entries=None):
    """The tripsync text rendered whole: the sweep as one payload, laid out
    by ``json.dumps`` or the table renderers."""
    if report is None:
        report = emanation.trip_sync_sweep(spec.n, spec.s_values or None)
    if entries is None:
        entries = swept_entries(report)
    kites = [
        {
            "s": entry.s,
            "abc": list(entry.abc_lows),
            "passed": entry.passed,
            "counterexamples": [list(t) for t in entry.counterexamples],
        }
        for entry in entries
        if not (spec.failures_only and entry.passed)
    ]
    payload = {"n": report.n, "s_values": list(report.s_values), "kites": kites,
               "all_passed": report.all_passed}
    if spec.failures_only:
        payload["kite_count"] = report.kite_count
    if spec.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    def joined(values):
        return " ".join(str(v) for v in values)

    rows = [
        [k["s"], joined(k["abc"]), "pass" if k["passed"] else "FAIL",
         "; ".join(joined(t) for t in k["counterexamples"])]
        for k in kites
    ]
    table = render.markdown_table if spec.format == "markdown" else render.csv_table
    verdict = "pass" if report.all_passed else "FAIL"
    return (
        "".join(table(["s", "ABC", "trip-sync", "counterexamples"], rows))
        + f"overall: {verdict} over {report.kite_count} kites\n"
    )


class TestSweepStream:
    """The tripsync text is written kite by kite, in the bytes of the sweep
    rendered whole."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_s_matches_materialised_render(self, n):
        requests = [(s,) for s in range(1, 1 << (n - 1))]
        if n < 7:
            requests.append(())  # the whole level: kites of many s in one list
        for s_values in requests:
            report = emanation.trip_sync_sweep(n, s_values or None)
            entries = swept_entries(report)
            for fmt in ("json", "markdown", "csv"):
                for failures_only in (False, True):
                    spec = RenderSpec("tripsync", fmt, n=n, s_values=s_values,
                                      failures_only=failures_only)
                    assert cmd_emit(spec) == materialised_sweep(spec, report, entries), spec

    def test_all_passing_failures_only_lists_no_kites(self):
        spec = RenderSpec("tripsync", "json", n=5, failures_only=True)
        text = cmd_emit(spec)
        assert text == materialised_sweep(spec)
        assert '\n  "kites": [],\n  "all_passed": true,\n  "kite_count": 77\n}\n' in text

    def test_chunks_come_before_the_sweep_ends(self, monkeypatch):
        # the head and the first kite are out while later s are still unswept
        swept = []

        def counted(n, s, fused=emanation.sweep_entries):
            swept.append(s)
            return fused(n, s)

        monkeypatch.setattr(emanation, "sweep_entries", counted)
        chunks = iter(render.emit_chunks(RenderSpec("tripsync", "json", n=6)))
        assert next(chunks).startswith('{\n  "n": 6,')
        assert next(chunks).startswith('\n    {\n      "s": 1,')
        assert swept == [1]

    def test_write_error_part_way_is_usage_error(self, tmp_path, capsys, monkeypatch):
        written = []

        class FullDisk(io.StringIO):
            def write(self, text):
                if written:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)
                return len(text)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        target = tmp_path / "sweep.json"
        with pytest.raises(SystemExit) as err:
            main(["emit", "tripsync", "--dim", "64", "--s-range", "25", "--format", "json",
                  "--out", str(target)])
        assert err.value.code == 2
        assert f"cannot write {target}: No space left on device" in capsys.readouterr().err
        assert written[0].startswith('{\n  "n": 6,')  # the head got out first

    def test_unwritable_out_refused_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        def no_search(n, s):
            raise AssertionError(f"graph of ({n}, {s}) built")

        monkeypatch.setattr(emanation, "zd_graph", no_search)
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as err:
            main(["emit", "tripsync", "--dim", "256", "--out", str(target)])
        assert err.value.code == 2
        assert f"cannot write {target}: No such file or directory" in capsys.readouterr().err
        assert not target.parent.exists()


class TestPathionStream:
    """The pathion text is written kite by kite, in the bytes of its payload
    laid out whole."""

    @pytest.mark.parametrize("n,s", [(4, 3), (5, 9), (6, 25)])
    def test_every_format_matches_the_whole_payload(self, n, s):
        kites = emanation.find_box_kites(n, s)
        payload = {"n": n, "s": s, "kites": [
            {"vertices": {p: [v.o, v.hi] for p, v in zip(LETTERS, kite.vertices)}}
            for kite in kites
        ]}
        assert cmd_emit(RenderSpec("pathion", "json", n=n, s=s)) == json_text(payload)
        rows = [[i, *(f"{v.o},{v.hi}" for v in kite.vertices)] for i, kite in enumerate(kites, 1)]
        for fmt in ("markdown", "csv"):
            table = "".join(render._TABLES[fmt](["Kite", *LETTERS], rows))
            assert cmd_emit(RenderSpec("pathion", fmt, n=n, s=s)) == table, fmt

    def test_no_kites_is_an_empty_list(self, monkeypatch):
        monkeypatch.setattr(render, "_kite_lows", lambda n, s: iter(()))
        text = cmd_emit(RenderSpec("pathion", "json", n=5, s=9))
        assert text == json_text({"n": 5, "s": 9, "kites": []})

    def test_one_chunk_per_kite(self):
        chunks = list(render.emit_chunks(RenderSpec("pathion", "json", n=5, s=9)))
        assert len(chunks) == len(emanation.find_box_kites(5, 9)) + 2

    def test_dot_is_written_a_line_at_a_time(self, tmp_path):
        # 42 MB when the n = 10 graph's text was joined whole, 19 MB streamed,
        # 18 MB for a census of the sedenions
        out = tmp_path / "zd.dot"
        code, _, err, peak_kb = cli_peak("emit", "pathion", "--dim", "1024", "--strut", "1",
                                         "--format", "dot", "--out", str(out))
        assert (code, err) == (0, "")
        edges = emanation.zd_graph(10, 1).adjacency.bit_count() // 2
        assert out.read_text().count("\n") == 1 + 510 + edges + 1  # 510 vertices
        assert peak_kb < 30 * 1024


class TestRoundTrip:
    def test_box_kite_json_round_trip(self, capsys):
        code, out = emit(capsys, "box-kite", "--strut", "4", "--format", "json")
        rebuilt = parse_box_kite(json.loads(out))
        assert rebuilt == build_box_kite(4)

    def test_box_kite_payload_edges_match_rebuild(self):
        payload = box_kite_payload(build_box_kite(6))
        rebuilt = parse_box_kite(payload)
        assert box_kite_payload(rebuilt) == payload

    def test_payload_below_sedenions_refused(self):
        payload = {**box_kite_payload(build_box_kite(1)), "n": 0}
        message = r"starts at the sedenions: n must be at least 4 \(dimension 16\); got n = 0$"
        with pytest.raises(ValueError, match=message):
            parse_box_kite(payload)

    def test_payload_with_another_s_refused(self):
        # the vertices of box-kite I carry X = 9, not the 10 of s = 2
        payload = {**box_kite_payload(build_box_kite(1)), "s": 2}
        with pytest.raises(ValueError, match=r"^vertex A = \(3,10\) does not carry X = 10$"):
            parse_box_kite(payload)

    def test_yard_json_round_trip(self, capsys):
        code, out = emit(capsys, "yard", "--strut", "2", "--format", "json")
        payload = json.loads(out)
        fresh = switching_yard(build_box_kite(2))
        assert [list(row) for row in fresh.cell_strings()] == payload["cells"]
        assert list(fresh.symbols) == payload["symbols"]


class TestVerifyCommand:
    def test_full_verify_exits_zero(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_sections_subset(self, capsys):
        code = main(["verify", "--sections", "strut-table,census"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strut-table/row-1-vertices" in out
        assert "trips/o123" not in out

    def test_json_report(self, capsys):
        code = main(["verify", "--sections", "fabric", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert all(check["section"] == "fabric" for check in payload["checks"])

    def test_empty_section_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--sections", ""])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_repeated_section_runs_once_in_given_order(self, capsys):
        code = main(["verify", "--sections", "census,trips,census", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["sections"] == ["census", "trips"]
        once = run_verification(["census", "trips"]).to_payload()
        assert payload == once

    def test_library_refuses_empty_section_list(self):
        with pytest.raises(ValueError, match="name at least one verification section"):
            run_verification([])

    @pytest.mark.parametrize("sections", ["trips", "census,trips", ""])
    def test_library_refuses_a_bare_string(self, sections):
        # a string iterates as its letters, each an unknown section name
        with pytest.raises(ValueError, match="as a list, not the string"):
            run_verification(sections)

    def test_library_runs_repeated_section_once(self):
        report = run_verification(["trips", "trips"])
        assert report.sections == ("trips",)
        assert len(report.results) == 37
        assert report.to_payload() == run_verification(["trips"]).to_payload()

    def test_census_claims_read_from_fixture(self, monkeypatch):
        from boxkites import fixtures

        claims = {"per_s_low": 70, "per_s_high": 30, "stated_total": 840, "arithmetic_total": 770}
        monkeypatch.setattr(fixtures, "PATHION_CENSUS_CLAIMS", claims)
        results = {r.check_id: r for r in run_verification(["census"]).results}
        assert results["census/n5-per-s"].claim == (
            "pathion census: 70 kites per s <= 8 and 30 per s >= 9"
        )
        assert results["census/n5-total"].claim.startswith(
            "enumerated total 77 vs stated 840 vs arithmetic 770; "
        )
        assert not results["census/n5-total"].passed

    def test_unknown_section_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--sections", "nonesuch"])
        assert err.value.code == 2

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as err:
            main(["verify", "--sections", "trips", "--format", "json", "--out", str(target)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {target}: " in captured.err
        assert not target.parent.exists()

    def test_unwritable_out_refused_before_any_check(self, tmp_path, capsys, monkeypatch):
        def no_checks(sections=None):
            raise AssertionError("checks ran")

        monkeypatch.setattr(cli, "run_verification", no_checks)
        target = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as err:
            main(["verify", "--out", str(target)])
        assert err.value.code == 2
        assert f"cannot write {target}: No such file or directory" in capsys.readouterr().err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from boxkites import fixtures

        broken = dict(fixtures.STRUT_TABLE)
        broken[1] = {**broken[1], "goto": (1, 1, 1, 1)}
        monkeypatch.setattr(fixtures, "STRUT_TABLE", broken)
        code = main(["verify", "--sections", "strut-table"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] strut-table/row-1-goto" in out

    def test_full_run_covers_every_fixture(self):
        report = run_verification()
        coverage = [r for r in report.results if r.check_id == "coverage/fixtures"]
        assert len(coverage) == 1 and coverage[0].passed

    def test_json_report_independent_of_hash_seed(self):
        src = str(Path(boxkites.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            runs.append(subprocess.Popen(
                [sys.executable, "-m", "boxkites.cli", "verify", "--format", "json"],
                env=env, stdout=subprocess.PIPE,
            ))
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0] == outputs[1]

    def test_package_runs_as_a_module(self, capsys):
        # python -m boxkites, from a checkout, is the command line itself
        src = str(Path(boxkites.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "boxkites", "verify", "--sections", "trips"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert main(["verify", "--sections", "trips"]) == 0
        assert (run.returncode, run.stdout) == (0, capsys.readouterr().out)

    def test_each_section_alone_equals_its_slice_of_a_full_run(self):
        # a run shares what its sections build among them only: no section
        # needs another to have run first, and a run leaves nothing to the next
        full = run_verification()
        by_section = {name: [r for r in full.results if r.section == name] for name in SECTIONS}
        for name in SECTIONS:
            assert run_verification([name]).results == by_section[name], name
        backwards = run_verification(SECTIONS[::-1]).results
        for name in SECTIONS:
            assert [r for r in backwards if r.section == name] == by_section[name], name
        assert run_verification().to_payload() == full.to_payload()

    def test_all_sections_listed(self):
        assert set(SECTIONS) == {
            "trips", "fabric", "strut-table", "edge-signs", "loops",
            "quizzical", "mock", "yard", "sync-table", "pathion",
            "census", "tripsync",
        }


class TestHelp:
    # argparse %-formats each help string only when help is printed
    @pytest.mark.parametrize("argv", [[], ["emit"], ["verify"]], ids=["boxkites", "emit", "verify"])
    def test_help_formats(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['boxkites', *argv])} ")

    def test_emit_help_reads_library_defaults(self, capsys, monkeypatch):
        monkeypatch.setitem(render.REGISTRY, "pathion",
                            replace(render.REGISTRY["pathion"], default_dim=128))
        with pytest.raises(SystemExit):
            main(["emit", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "default 16; 128 for pathion" in out
        for default in (RenderSpec.s, RenderSpec.strut, RenderSpec.format):
            assert f"(default {default})" in out
        assert f"--strut-pair {{{','.join(STRUT_SYMBOLS)}}}" in out

    def test_strut_pair_choices_read_from_lariats(self, monkeypatch):
        monkeypatch.setattr(cli, "STRUT_SYMBOLS", {"XY": ()})
        parser = cli.build_parser()
        assert parser.parse_args(["emit", "mock", "--strut-pair", "XY"]).strut == "XY"
        with pytest.raises(SystemExit):
            parser.parse_args(["emit", "mock", "--strut-pair", "AF"])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every ``boxkites ...`` line of the README's "Command line" section."""
    section = re.search(r"^## Command line\n(.*?)^## ", README.read_text(), re.M | re.S)
    lines = [line.split("#")[0] for line in section.group(1).splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("boxkites ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out
