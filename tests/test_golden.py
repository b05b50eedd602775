"""Golden bytes: the sha256 of every emit target in every format it supports.

The digests were recorded from the per-target renderers that preceded the
table-driven registry in ``render.py``; any change to emitted bytes, however
small, fails here.  The three large n = 6 and n = 7 outputs at the end of
``GOLDEN`` are the benchmark's reference digests
(``perfbench/references.json``).  DOT is pinned for the two graph targets
and must be refused, with a usage error, for every other target.  The full
``boxkites verify --format json`` report is pinned as well: it carries every
check's expected and computed value, so it fixes every lariat table and loop
verdict that verify computes.  Last, every output the benchmark checks
(the 65 entries of ``perfbench/references.json``) is made in-process and
compared by digest and length, verify also by its (id, passed) list.
"""

import hashlib
import json
from pathlib import Path

import pytest

from boxkites.cli import main
from boxkites.emanation import sweep_range
from boxkites.render import TARGETS, RenderSpec, cmd_emit
from boxkites.verify import run_verification

GOLDEN = {
    RenderSpec("strut-table"): {
        "markdown": "566a654266457738506d87acef702aeaf70d3685c271b6c3b9a1ebcf6a34858c",
        "csv": "a24e805d9256a7185bd425ba756ef763f7bda647b93e26bdf77a27a51edde541",
        "json": "6c957e63c02cfd023e298f5a3ee3ec0b547e42063592fc8337afa00376807309",
    },
    RenderSpec("box-kite", s=1): {
        "markdown": "2defb2457a3d533b96d4bb96de42af01cae3171143f1f4c07384d8d5622c3808",
        "csv": "d09ffaad240cc6685b618a6ce23b31cf9ac53a708b6526392b3eaa52cdbe5650",
        "json": "cc8be43e02751009d692559adc9b54561bc0d0369c362ae2d24ad7a2180a84b3",
        "dot": "c18e07659568e830088ff59df4c89602e6199e8e0a3a976ef3ea856ce6f5ce4b",
    },
    RenderSpec("box-kite", n=5, s=9): {
        "markdown": "055a0d99d1c8e6c1d959c4ad28bf69b181b730188e6e7222a21d56f3a52d356d",
        "csv": "9d1985934c3e252724e65f5401db52d95b4af66b4f2e7173c4770bdb0a11ffba",
        "json": "810f51d3520f3ccbba6f34721605de8430c2126501b06f19fec8da685d23551a",
        "dot": "94ed215f614a5007dc9d2c7b1ce0385ac412c3f9a99613ea376ceb3008f38a54",
    },
    RenderSpec("yard", s=1): {
        "markdown": "7ab0849273c75a5aab42c3a8b55cf09baf4784a0482a29ba6cd11abc48843fe0",
        "csv": "38381910e36ff3d48b1dce099357236bb55ba8f72f86e665c0ac3b6cf5438dcc",
        "json": "690957681a1be547bd4b2c91f2ac9ec6105d88cc72dd0be6c93d55981d6195ba",
    },
    RenderSpec("mock", s=1): {
        "markdown": "12b250a10e3619ba409c3fc0478a0aaec161fbecb9de29be002e6eda86e56ef3",
        "csv": "ef0237eeed3ddfd64a3ec75f97216b11500e0b084c0e70b48f07fca8613a991f",
        "json": "34a020f1cbb30868bda1150868806e694d8830be77d7b63328aae0fd3e0d9bd6",
    },
    RenderSpec("mock", s=3, strut="BE"): {
        "markdown": "7b6e247d92ad706b9f6f2eead501e0ee41aeca099b211e2652574d053b4617f9",
        "csv": "745741fce15a06df41edf67ede67fdfed70a35bfac0ce600e150429a29fe1cfb",
        "json": "7cd9b36163f3447d76f3f31939f3fae7daf05acad9d63685bbe7cb6bb160ce08",
    },
    RenderSpec("quizzical", s=3): {
        "markdown": "9b53172a953aef6629d950cee4b02cf03a13704bca1b2ee28196f251a4ce8fb6",
        "csv": "a75406b57ac4bac2ab864df06b4c772043e871e4c28eff3becc412ee8e5673c9",
        "json": "68c53d87fd0ca8e7b1960288d9d37c4c8c6fc7fac9e7350ab668088807d88f74",
    },
    RenderSpec("sync-table"): {
        "markdown": "5fc7452922999a68d350d5fee8f819404485df8cfa36659c5030be109b0efca4",
        "csv": "fda5e99544853cf1c9e3bd9c3c32263bc5c0ff1380f2de71e1551a19920f75ce",
        "json": "46f46439fdaf4cacdd9638d2c65e113c85e644895aec9356fb08cf722865673b",
    },
    RenderSpec("pathion", n=5, s=1): {
        "markdown": "727b23d8916c838d37cb093f2d1421321b1d39d1dfa3eafd74c37666d377123e",
        "csv": "cf7613209b8244950777fad80e4bcd4e1705ad4c232231141690190cb863385d",
        "json": "b7b2ab2b00ea275ce39c9c854e7c4092d621cb4ae9b47708458a6708c8172dda",
        "dot": "815503c0f65ab6e102550c9ec8b8fbdd27c859285f95d43c30331bddac783542",
    },
    RenderSpec("pathion", n=5, s=9): {
        "markdown": "5e377a9e168d74f114ac50b719dfb156b39ae3b9823deeb802adecd015adee02",
        "csv": "7e0b28dab45135e3603b06ffacb58817aae50e8de23949c7fec7c62fb3ea3b8c",
        "json": "184e65e59b5ce5249a452f75e94bc0fb4d27ad5ca241090a6cd8a0759c1e963e",
        "dot": "94ed215f614a5007dc9d2c7b1ce0385ac412c3f9a99613ea376ceb3008f38a54",
    },
    # 87 kites, 24 of them with no zigzag sail and so lettered by their least
    # sail, and the n = 6 graph in DOT
    RenderSpec("pathion", n=6, s=25): {
        "markdown": "55d5f06d0dfbee5d9ec5f70a403384cd71fb81125a44587da70b719c2784ea6e",
        "csv": "be314ee10a9c839459afe047437b9fb56525ffc60e67cc8767cc97a005096dfe",
        "json": "e222941673b3e84d82856697ddef25f408b70c5e1f2dbfb6be66713f9d401a20",
        "dot": "9ec58627875dfd80e93b071feb0540a983d9ba163833faf8ae3f5a7a312a8d2e",
    },
    # the n = 8 graph in DOT: 126 vertices, 7,092 edges
    RenderSpec("pathion", n=8, s=100): {
        "dot": "7b5f25cde65de7c6fdad23d58c45b5a4fcbccb187c28f4dcddde4852e5ec8648",
    },
    RenderSpec("census", n=5): {
        "markdown": "2beee1f326fe4a6d61cf8adbe3ee42c45337245f220c8a6265d1452215a646f8",
        "csv": "25df9d135b4d51159c4ae3d2e228869c1b2644b3f0d4e891b8b06a25984070aa",
        "json": "a94f3433cae4e5fb68be55b109dcc3bfa5a90797e992d2c59d3d82c3dc56d94d",
    },
    RenderSpec("tripsync", n=5): {
        "markdown": "62db0ebdebf6269b2f4591e79d35f7a47c58d91159df89887e0d12b64fbfab24",
        "csv": "78fc9121accc976eea024508b0a6e581f1e6ecd2b044163446af328053cefa27",
        "json": "7794087f1e87b5ea0c7613b561d27d8f8cdccf4020df32c66958bd0c8febeba7",
    },
    RenderSpec("tripsync", n=5, s_values=(1, 2, 9)): {
        "markdown": "ca150ba50cc845dab7223087019262bc0abd3c044d602c5150267eee52654327",
        "csv": "7b7bb3e68abef5dc1c167db47d48f0ab53a96f9455ee2ad9f2ad03443a5feb41",
        "json": "e2f6e5d1be7f18d51c2a6575e52e9f0b38fdfa7b22c87759250d6904c1b61058",
    },
    RenderSpec("census"): {
        "markdown": "95c869f86764ce67f5735832a7e05f0b98e4e7b6822bd4fd42d1a9ef6fe60a1a",
        "csv": "bcad751d2749546c11b1c0cd3acee0e69ceae1077bf0a2ff4c88735b1d9ed229",
        "json": "8a98a0da730ae361b0d39044b0733c07afd125f3280cefa15f892d854ba7d4b1",
    },
    RenderSpec("tripsync", n=6, s_values=(25,)): {
        "markdown": "ee5465082813197c259051983e3ceee923385a48ff5d91b32735eca788f12a37",
        "csv": "7a626a03b73227b1074911c2b3b680ebe91ddd498d4e3f763ec2d1c2646bb557",
        "json": "74a8af1f3346606e604f096587796ba8867a23f0b08c47cdce119aa7d3aa03e4",
    },
    RenderSpec("census", n=6): {
        "json": "e539f11be2f5f247c51ae216e01884467dcd599e856e38823bd9513b72600e5e",
    },
    # the whole n = 6 sweep: 31 strut constants and 1,113 kites, with the failing
    # non-native kites at s >= 25, whose counterexamples follow slot order
    RenderSpec("tripsync", n=6): {
        "json": "d96a1834273c11429c21c563c51d8f300ea65f95955503ee65b8c72ea4b7f62c",
    },
    # the dear n = 7 tier: 847 kites, mostly non-native
    RenderSpec("tripsync", n=7, s_values=(47,)): {
        "markdown": "2f062c001d56d4ee4f1d0162377bcd4eb1649842cf4ae89bc8afd4b108c47f33",
        "csv": "58c4f9ac3384d9794bcc553269d40c90a638ff2f8770edad4ada413c81ad4e47",
        "json": "25e5a959a442182a0a6019a8cf4cf1358d28d3aaa7c2fc174eb736e211a229c4",
    },
    RenderSpec("tripsync", n=7, s_values=(6,)): {
        "json": "e0bbb0f918c76122c0d8db3d1ff49b37fc50d2daa62588271f083de81f820844",
    },
}


VERIFY_JSON = "5136030e1c3a6877b08533cfa331449cbd79a12410072d59aeed6854d5c0676d"

DOT_TARGETS = ("box-kite", "pathion")


def spec_id(spec):
    # a tripsync request naming no s holds every s of its level; its id names none
    whole = spec.s_values == sweep_range(spec.n)
    s_values = "" if whole else ",".join(map(str, spec.s_values))
    return f"{spec.target} n={spec.n} s={spec.s} {spec.strut} {s_values}".rstrip()


def test_every_target_and_format_is_pinned():
    pinned = {(spec.target, fmt) for spec, digests in GOLDEN.items() for fmt in digests}
    expected = {
        (target, fmt)
        for target in TARGETS
        for fmt in ("markdown", "csv", "json") + (("dot",) if target in DOT_TARGETS else ())
    }
    assert pinned == expected


@pytest.mark.parametrize(
    ("spec", "fmt"),
    [(spec, fmt) for spec, digests in GOLDEN.items() for fmt in digests],
    ids=lambda value: spec_id(value) if isinstance(value, RenderSpec) else value,
)
def test_emit_bytes_match_golden(spec, fmt):
    text = cmd_emit(RenderSpec(spec.target, fmt, spec.n, spec.s, spec.strut, spec.s_values,
                               spec.failures_only))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[spec][fmt]


@pytest.mark.parametrize("target", [t for t in TARGETS if t not in DOT_TARGETS])
def test_dot_refused_for_non_graph_targets(target):
    with pytest.raises(SystemExit) as err:
        main(["emit", target, "--format", "dot"])
    assert err.value.code == 2


def test_verify_json_matches_golden(capsys):
    assert main(["verify", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_JSON


REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)["references"]


def test_every_benchmark_reference_is_checked():
    assert set(REFERENCES) == {"census-n6", "verify"} | {
        f"tripsync-n7-s{s}" for s in range(1, 64)
    }


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_benchmark_reference_reproduced(key):
    """Each output the benchmark checks, made in-process as its worker makes it."""
    reference = REFERENCES[key]
    if key == "verify":
        checks = [[r.check_id, r.passed] for r in run_verification().results]
        assert checks == reference["checks"]
        data = json.dumps(checks, separators=(",", ":")).encode()
    else:
        op, level, *s = key.split("-")
        spec = RenderSpec(target=op, n=int(level[1:]), format="json",
                          s_values=tuple(int(value[1:]) for value in s))
        data = cmd_emit(spec).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (reference["sha256"], reference["bytes"])
