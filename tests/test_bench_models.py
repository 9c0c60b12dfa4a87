"""The benchmark's model families, checked end to end through the CLI: each
verdict is the one the generator derives from how the model is built, and
the trace oracle agrees with every fixpoint verdict.  ``perfbench/models.py``
is imported read-only, as ``test_bench_bindings.py`` imports the tracer."""
import contextlib
import hashlib
import io
import json

import pytest

from fixleads import load_file
from fixleads.cli import main
from conftest import perfbench_models
from schema3 import schema3_digest
from test_cli import golden_outputs


def _families():
    models = perfbench_models()
    return {
        "ring4": models.ring(4, 1, assume=("wf", "mp", "wf-si")),
        "starve4": models.ring(4, 1, starve=True, assume=("wf", "mp")),
        "lattice3x9": models.lattice(3, 9, 1),
        "ring5": models.ring(5, 2, assume=("wf", "mp", "wf-si")),
        "starve5": models.ring(5, 2, starve=True, assume=("wf", "mp")),
    }


FAMILIES = _families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_benchmark_model_verdicts_and_oracle_agreement(tmp_path, name):
    model = FAMILIES[name]
    path = tmp_path / f"{name}.evt"
    path.write_text(model.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--oracle", "--json"])
    report = json.loads(out.getvalue())
    verdicts = {p["name"]: p["verdict"]["holds"] for p in report["properties"]}
    assert verdicts == model.expected
    assert all(p["agreement"] is True for p in report["properties"])
    assert code == (0 if all(model.expected.values()) else 1)


# sha256 of each file that ``test_cli.golden_outputs(..., raw=True)`` collects:
# the reports as ``check`` wrote them (``time_ms`` set to 0), ``si --json`` and
# the certificates.  ``si``'s were recorded while every document was still
# one ``json.dumps`` call, the certificates' when schema 3 replaced schema 2
# (their text equals ``json.dumps`` of their plain form), and the reports'
# when report schema 4 moved their sets into one table, which certificates
# share; ``PINNED_SCHEMA3`` below holds the reports' earlier bytes.  The
# families' long traces and large set tables, which the small ``tests/data``
# models lack, must keep those bytes under the per-state text writer.  The
# oracle's fair lasso is one tour that skips states already on it (starve4's
# enter_wf cycle has 68 steps, starve5's 172): starve5's pins hold its lassos
# at a size the N=4 pins do not reach.
PINNED = {
    "lattice3x9": {
        "check-assume-mp.json": "88be5b83963bc59254fdbba330395fc55ece759ee02a608ae24a9ebbf0c9887c",
        "check-assume-wf.json": "a0cb153d75798728ab713d1502cdcf8e15f33f2adae41255e1ef6662923f6d2f",
        "check-si.json": "e76291cde67c182c174420c44417f1dff26523d3098411823daee4c640253f84",
        "check.json": "88be5b83963bc59254fdbba330395fc55ece759ee02a608ae24a9ebbf0c9887c",
        "exits.json": "bb65b41f771bcb07e6f07c15af0f7f64001af45d2cbdc891e56b9ff3829d2b58",
        "si.json": "0e197f7e0da2fa5cb92ffd2c188a56f027fdf45c22be15c9e371a94dba6c0818",
        "top.cert.json": "63b913719b2bffed8983fbd260d8ff1870879b73787395a1294ccff67c29f3ba",
        "top_by_variant.cert.json": "b5cf9a6ea365c5aeed98fbcb9dc079e8848c95618715e93ac27598b0bd4c9658",
        "top_si.cert.json": "46cce8fe6bde96a2eb7d261af3508e74300dbf167b6ffa95ca41a2d52403d1f4",
    },
    "ring4": {
        "check-assume-mp.json": "2560dd264b05d50a53648cd6b4237eaf9ece01347b7feb946ba62474039bcf77",
        "check-assume-wf.json": "ec56a2aceacb43c9a337b711e3e252085550dcb34949bdc828e5b9476ff5e489",
        "check-si.json": "88444d0f9c9cebb7f5a9704aa0a5decc57ae73db6b52add075133f972d7b0742",
        "check.json": "0acc5e351869875ace00b48b86fed415bf154a7a70179779b79d2dd474343fd8",
        "enter_mp.cert.json": "5809110efb0eb554e44ebdb47329ad881df7281660b89f5a19ddac07641501c7",
        "enter_wf.cert.json": "e62b07ddb3dfcdd11a6ae52e515e1c6b5bd71065103a8ca377bf5b3edd027db1",
        "enter_wf_si.cert.json": "24552de3acde058f55f8b153437ddb6fc27eb39bad7ab955ac98b8cc429d37da",
        "exits.json": "9c04803cd9142bb42b0c7a94a4acfc1427200a86cbaa986ea171cb381023a950",
        "si.json": "6cf63ec9834957aa9c0839fbfe211fec92a5379167c375e4a6a3d983062242b4",
    },
    "ring5": {
        "check-assume-mp.json": "4568ff7e6ba19e932d35e4c215798bb52ec79f0bcecf34c4c80f2674a1b48248",
        "check-assume-wf.json": "a2a5081fe4d0c4e717e130dd94ec45559d47c4224ee45b99b2d9eac080b57ca4",
        "check-si.json": "4a4e185dc6567ae4a71ad5a72173bf54ba43092b7fa70f458cf14a76f18f33aa",
        "check.json": "4421372ce8c8d62846a575ce63ee00e64402fba2deafcfdff769ba6ab4fa6e75",
        "enter_mp.cert.json": "de1a314f10da02cc0c10588e702b895ac45f3ee03828b5e8fada682f03b31dfb",
        "enter_wf.cert.json": "a5c0fc769c53c0b55c1e1d67ce367202e7dfec5d8574d7938e86b2d035cb3b4a",
        "enter_wf_si.cert.json": "59fc668f04e49182d72b5acf6ea505998f9e3c0ac7da680c9eee326fabaaca78",
        "exits.json": "9c04803cd9142bb42b0c7a94a4acfc1427200a86cbaa986ea171cb381023a950",
        "si.json": "589720d5e3856ae867bde22187b742985c622f76e1bbb63fd90850a326251afd",
    },
    "starve4": {
        "check-assume-mp.json": "3be7c5fcfee5072538e890d1b7d4cd6591600cd0ee94623d0dd36b71de18dfeb",
        "check-assume-wf.json": "3d3777164fea789d2dfc3168879a1dad4f244ce699ae916d9d4aff32551cd695",
        "check-si.json": "c2012b9f54f508149350ceabc3c0da15ad1687f85633400f4e7fad5cf5ca6e56",
        "check.json": "a70f8273d71c13fedaee8a77bc26c4d0b6fd75c9530f4f328ab4b847493da7a2",
        "exits.json": "63e3ad0ba6c3850f3ee74a5e932e96c2d77cf857ec7605ecf3b30519caea4719",
        "si.json": "6cf63ec9834957aa9c0839fbfe211fec92a5379167c375e4a6a3d983062242b4",
    },
    "starve5": {
        "check-assume-mp.json": "d29793bccfcdcd1b3ba4e34302e5041b5056adb1998ce2ca068f85ca6a68e888",
        "check-assume-wf.json": "3949fa8f2ee493feb911e34d45feb3215c351430536069a30321dee4ac9bfa5a",
        "check-si.json": "580e5c47e6740c4bd9ebbadec0b23e4cb523329476a996502b5ddfff91e0f00c",
        "check.json": "477245edd84c9873ae6979b3113a9a0d24f4841ff58d5484e4dce629293262db",
        "exits.json": "63e3ad0ba6c3850f3ee74a5e932e96c2d77cf857ec7605ecf3b30519caea4719",
        "si.json": "589720d5e3856ae867bde22187b742985c622f76e1bbb63fd90850a326251afd",
    },
}


# sha256 of each ``check`` report above as schema 3 wrote it, before schema 4
# stored each distinct set once: the schema-3 form that ``schema3`` rebuilds
# from each report must come out byte for byte.
PINNED_SCHEMA3 = {
    "lattice3x9": {
        "check-assume-mp.json": "55ff8ae7e9b89cfc6d01e67768b8eb6b88570e28481e3240bf7363b1872cc03d",
        "check-assume-wf.json": "cce7513de5f96866d08b20bc56beea4f6626a9563d2e548d7d25b2370f509f25",
        "check-si.json": "d12e8c963740a3e88e2e640caddfb00ace63c5a5c83fc01335cee7c83106ea77",
        "check.json": "55ff8ae7e9b89cfc6d01e67768b8eb6b88570e28481e3240bf7363b1872cc03d",
    },
    "ring4": {
        "check-assume-mp.json": "1313f5736b33c87b9cc4c88b9788d2d9aea090e164e61494e3693bc51141f351",
        "check-assume-wf.json": "f1dae9c45c124c1c183be65dbd8470569fe5afa824baadd6856c5b2d79a5c489",
        "check-si.json": "e934d8bf4e9dbd219f2af0b248bb9ba426e450e601eff6aad7e9bb64b09f9f09",
        "check.json": "3fbe154d81d948f493c8852d88fc987d159e29ce9d9569fc57f91da933d16af0",
    },
    "ring5": {
        "check-assume-mp.json": "2a357b3cc78ce7047fd91d34ba84092b51abe865b5f9eeba235854926c390451",
        "check-assume-wf.json": "6e9c9ef6d22ced8c6dae43340880f89033ec0aa2fa932c9d2e478ccf530e9a0f",
        "check-si.json": "f305de33071ddcd5fafd726328583799a911d2128e08388c05336e4079095cbb",
        "check.json": "eedfa7e5c88ea2699203a91c5411d2d434849231b52202f4424cde835b83cd7f",
    },
    "starve4": {
        "check-assume-mp.json": "e6c269abe5f83d019259d32e94f21f925c09032703f82250fe493ebede58823a",
        "check-assume-wf.json": "f3076a1ba3d7bbff257a35ec331b8a14ea3ccf53fa698b1eb16a97c5de3bd0ce",
        "check-si.json": "cdd09dcd034869a6e188d980d74284a984c313661b1c50c615cf912d15076846",
        "check.json": "3e48a7e692d6aac72c88f2cb28342d8bdcf21073974e12c3f53aa7065810d71d",
    },
    "starve5": {
        "check-assume-mp.json": "731b76b0ea3f0f9967769c438220cbc57c50d1e09f52b476025debf48d095cdb",
        "check-assume-wf.json": "75230cef3d1c3d27f0458a978eaf654b9ccf45c307d23d98eb1bb9c42dd5abe3",
        "check-si.json": "ce4081d83bc0c540d92e709a5c0722d0be1c3b881936bb3bc80e36f1213a7c08",
        "check.json": "4e3bd4d7bd95412577a26f0ca2b396486d44a6ed86a0e609e0ea4bcb3adbf1ef",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_model_outputs_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.evt"
    path.write_text(FAMILIES[name].text)
    files = golden_outputs(str(path), str(tmp_path), raw=True)
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in files.items()}
    assert digests == PINNED[name]
    space = load_file(str(path)).system.space
    rebuilt = {key: schema3_digest(files[key], space) for key in PINNED_SCHEMA3[name]}
    assert rebuilt == PINNED_SCHEMA3[name]


def test_check_cert_rejects_a_certificate_that_does_not_prove_its_property(tmp_path, capsys):
    # one trivially true leaf that claims ∅ leads to ∅, filed under enter_wf,
    # which fails in the starving ring
    path = tmp_path / "starve4.evt"
    path.write_text(FAMILIES["starve4"].text)
    forged = {"system": "starve4", "property": "enter_wf", "assumption": "wf", "schema": 3,
              "vars": ["x0", "x1", "x2", "x3", "t"], "sets": [[]], "claimed": {"a": 0, "b": 0},
              "certificate": {"rule": "SBR", "p": 0, "q": 0, "assumption": "wf", "helpful": "try0"}}
    cert = tmp_path / "forged.cert.json"
    cert.write_text(json.dumps(forged))
    assert main(["check-cert", str(path), str(cert)]) == 1
    assert capsys.readouterr().out == "certificate rejected\n"
