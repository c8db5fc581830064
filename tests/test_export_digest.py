"""Pinned `module export` output: a change to any exported entry fails here.

The (3,3) export is 3.4 MB and the (2,5) export 5.5 MB, too large to commit,
so each is pinned by the SHA-256 digest of every matrix's `json.dumps` and of
the whole file.  A deliberate change to the exported values updates these
digests and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from qcactus import cli

PINNED = {
    (3, 3): {
        "file": "cf164c68bdeaaef545d9dbf805e31af4e3c8cd959b0ec26073412a7a369836fe",
        "C1": "c2a531b4e3e94dbaf20d4c41eb4e79b301632fd36a9284431fcafbeffeea3658",
        "C2": "e56b31526d7e7d23fac0ff86a2418589ff970e87284e4887adbeeae19c1609a0",
        "P1": "65ec61fee3b242344037663cb937fdc512e45c15d5a61e32b5a03144c4bbcfa8",
        "P2": "ce6459df09e4e3188942dcac2f6a8f33d73fd57a9cbac7449a90b399e7719193",
        "N1": "6f5ad0196e63e4c49380592b7f5288749add7557eeaca628436c4206a5232799",
        "N2": "f900e8ad0aeb0e453f43b0561ddc06260b75a0ca1bd60f86bb6cb6fbd813cc16",
    },
    (2, 5): {
        "file": "7e4d8bc57f81228fda47d5089e0ceac8f0a48b25d5e276e4e9f62b2537e8193d",
        "C1": "4ebe556bea8a06857bd7a8b7e56bfbc3d2e6f5f619681e7cb0a4740d92dcd51a",
        "C2": "397bba684b332a477af01c0a533ba03f86cf8b8439580a3ccd071f160ab59d0b",
        "P1": "7e0b981b8e1d2abdb850ac33e987f3016d5c72248e6f2905c0133e03ff72b050",
        "P2": "741fdb65d85202e8dbc41dbd60faffd40979daed18f6b2505de9b0865671ec31",
        "N1": "0a7dc4ff74d291bdbd5e96592e5060b4a19c0a23007fa8107b13fe31854a41ea",
        "N2": "82a72de7acc0e71d831ed36b5fbdfecc3adf6e41ea59fe1caf5d2b3bb3345d9d",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("lam", sorted(PINNED))
def test_module_export_matches_its_pinned_digests(lam, tmp_path, capsys):
    out_file = tmp_path / "matrices.json"
    assert cli.main(["module", "export", "--l1", str(lam[0]), "--l2", str(lam[1]),
                     "--out", str(out_file)]) == 0
    capsys.readouterr()
    raw = out_file.read_bytes()
    matrices = json.loads(raw)["matrices"]
    expected = PINNED[lam]
    assert list(matrices) == [tag for tag in expected if tag != "file"]
    for tag, rows in matrices.items():
        got = _sha256(json.dumps(rows).encode())
        assert got == expected[tag], f"module export of {lam}: matrix {tag} differs from its pinned digest"
    assert _sha256(raw) == expected["file"], f"module export of {lam}: the file differs from its pinned digest"
