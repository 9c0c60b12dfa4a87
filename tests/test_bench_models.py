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
from test_cli import golden_outputs, without_wf_lassos_digest


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
# one ``json.dumps`` call, and the reports' when report schema 5 wrote each
# state of its set table as its index; ``PINNED_SCHEMA3`` below holds their
# earlier bytes.  The certificates' were recorded when certificate schema 5
# wrote each chain as one node, the assumption once and only the wf leaves
# that add states; ``test_cli.lean`` of each schema-4 certificate they
# replace gave these bytes.  The families' long traces and large set
# tables, which the small ``tests/data`` models lack, must keep those bytes
# under the writer.  The oracle's fair lasso is a justice walk, one witness
# per event (starve4's enter_wf cycle has 10 steps, starve5's 18), and the
# starve4 and starve5 reports were recorded again when it replaced the tour of
# the whole component (68 and 173 steps): ``PINNED_WITHOUT_WF_LASSOS`` shows
# that nothing else in them changed.
PINNED = {
    "lattice3x9": {
        "check-assume-mp.json": "ac9288824fd9aa71ffb84c33b1f6e5530fd2868d94b9a0dbd71e880f0d4e16bb",
        "check-assume-wf.json": "f12fee14128d718ab4b71cfaf4587509d3f80766cc3917812d5aa5690e2c15fd",
        "check-si.json": "0d3ab234b0f3660c45f0e82f4d4cdda65f2f5fdcf6f963021c807a8749f21bbd",
        "check.json": "ac9288824fd9aa71ffb84c33b1f6e5530fd2868d94b9a0dbd71e880f0d4e16bb",
        "exits.json": "bb65b41f771bcb07e6f07c15af0f7f64001af45d2cbdc891e56b9ff3829d2b58",
        "si.json": "0e197f7e0da2fa5cb92ffd2c188a56f027fdf45c22be15c9e371a94dba6c0818",
        "top.cert.json": "034b98339beab84ea96863d108f14c48dddf72ffc01de930e3d96c0745e5f6ca",
        "top_by_variant.cert.json": "0bbc5bde8384fdafbd3d1e4b9a6ee7418b5874f33e8a611bbae74cdea4ca0c58",
        "top_si.cert.json": "8990f81a4f88e32f8a8dd83063730480d8bfa9945a2f41883164d60cf7a46afd",
    },
    "ring4": {
        "check-assume-mp.json": "ac75bce3b0cf8bbce34d99831e976217bd966036752f87b36219e57421fbd091",
        "check-assume-wf.json": "d7d5a15cd3443b688ceec8fdc5a1ae00baaf2e046f4bf96a71b3149b04e011f5",
        "check-si.json": "40772cd828ebbd0bf62baaf62de659d3add61bbff3bf37b3983a87ad07d4c26f",
        "check.json": "ad9c81c5f0b201bb5cd9889ac0bd0bc746af497e8a5f7759a015a6c117f59276",
        "enter_mp.cert.json": "2a33966415c0cbcbd7b4c36888be9fb1d8a201451e9906a6ad33368f2bf59b51",
        "enter_wf.cert.json": "974d69ad62068970ddb455ab0359d07c6f6cd0bd8feee6f1e56aaeef5e70f965",
        "enter_wf_si.cert.json": "1da0c85bd74ec216f473d10ad856760269493751692af4ec4605efacc40cbfda",
        "exits.json": "9c04803cd9142bb42b0c7a94a4acfc1427200a86cbaa986ea171cb381023a950",
        "si.json": "6cf63ec9834957aa9c0839fbfe211fec92a5379167c375e4a6a3d983062242b4",
    },
    "ring5": {
        "check-assume-mp.json": "ebbd4b5dcb8635d627214ac61443faa679837e8be440bf01c17f73eea6d314b4",
        "check-assume-wf.json": "ab28997d616b162b7cc7fc242e3ee65f2a422dac412cc999ad3610e61992e8f4",
        "check-si.json": "840fe528b2e01e20cbce2da50218d51ef3dbb1cd048245a522dde00256bd1d5c",
        "check.json": "5df02b3f51aceb3eebdfc4734078970b7db042c2d1dd563a93ba7c2999f89d97",
        "enter_mp.cert.json": "f31806f9b796f29fc59076089924b2340544eed32c436d6bb6d72770f07eddd2",
        "enter_wf.cert.json": "d6e5130496d4055ed2e128dc4fd04bf1608dafd0ec71d564cace67aab96e387b",
        "enter_wf_si.cert.json": "b7f1ea7f8fd5e10e350f8392ff3061aa52fd8dd839d9fe6248554741423fb85d",
        "exits.json": "9c04803cd9142bb42b0c7a94a4acfc1427200a86cbaa986ea171cb381023a950",
        "si.json": "589720d5e3856ae867bde22187b742985c622f76e1bbb63fd90850a326251afd",
    },
    "starve4": {
        "check-assume-mp.json": "00ceb6dc6a135f95603ba2ead244ceac9d9f72c046ec0272e62925ea21ff4b87",
        "check-assume-wf.json": "f11a68ed2ce7a879afa46e6567e58d5c251713f5abab97c6e0a4f90da9f0041d",
        "check-si.json": "79afc42675ba158a9aa70d3039a6e99a9162700e7fa0a7baccbed38106d09003",
        "check.json": "2a02da495c298757f0dc2678eede0db8ad7c41d299dd42a4af6251f511e04023",
        "exits.json": "63e3ad0ba6c3850f3ee74a5e932e96c2d77cf857ec7605ecf3b30519caea4719",
        "si.json": "6cf63ec9834957aa9c0839fbfe211fec92a5379167c375e4a6a3d983062242b4",
    },
    "starve5": {
        "check-assume-mp.json": "04d395da452c9678c61812684fa8512b45dccda2bb5b851422dbb4d4bad695d5",
        "check-assume-wf.json": "a52284f7e70ed4712e936c3708456cd7c44ff7da0dcbda40e7b6b3d54ad9e0cf",
        "check-si.json": "2e345dc6222722c7173302ac08e43c82953d2d86fe1ce341ed062cd813c3f923",
        "check.json": "70b73cd2d53a2bd1971bfa7a1f26136502bfaa5d3d67ca4d887dfe9a51f65647",
        "exits.json": "63e3ad0ba6c3850f3ee74a5e932e96c2d77cf857ec7605ecf3b30519caea4719",
        "si.json": "589720d5e3856ae867bde22187b742985c622f76e1bbb63fd90850a326251afd",
    },
}


# sha256 of each ``check`` report above as schema 3 wrote it, before schema 4
# stored each distinct set once: the schema-3 form that ``schema3`` rebuilds
# from each report must come out byte for byte.  starve4's and starve5's
# were recorded again with the justice walk.
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
        "check-assume-wf.json": "158aa5e6060db27954af6e278495a53e18f7520848b4423a34d1679b5a7fdd0c",
        "check-si.json": "50ef978c4414fc2b9416df14d568019731b98a0f1950c9984facef1284558485",
        "check.json": "1a85b7c5790860bfdf7fa31596ae1e0b43723582fa40e76e9156381b0f36b433",
    },
    "starve5": {
        "check-assume-mp.json": "731b76b0ea3f0f9967769c438220cbc57c50d1e09f52b476025debf48d095cdb",
        "check-assume-wf.json": "95057986e80fba86ce15d16e87bd26d8d0372de243eaa7d7b9999f26dd82204a",
        "check-si.json": "42d03d682d8df4e9cfd4b0396b71d3fb5d6ad8d9733d64611edcf5380833d326",
        "check.json": "89da9187642988333e36f803709882e3bc7c3f1fbdbf69eb4928c65ac5bc4eec",
    },
}

# ``without_wf_lassos_digest`` of the starving rings' reports, taken from the
# reports that the tour of the whole component gave: the justice walk changes
# the wf lassos' cycles and nothing else.
PINNED_WITHOUT_WF_LASSOS = {
    "starve4": {
        "check-assume-mp.json": "00ceb6dc6a135f95603ba2ead244ceac9d9f72c046ec0272e62925ea21ff4b87",
        "check-assume-wf.json": "6b998696a2f940c0520f013dbc548bab30a95be7c28c5788a3be8937db238af2",
        "check-si.json": "3a5208bede54376c2dd87e0e705cede2a48aa804086721df66de0a30dc64e9cf",
        "check.json": "5cb3392ed52fed93ee3b4268320300c351be320672a80681d3bc7c2bf079aac3",
    },
    "starve5": {
        "check-assume-mp.json": "04d395da452c9678c61812684fa8512b45dccda2bb5b851422dbb4d4bad695d5",
        "check-assume-wf.json": "c561036f52bcaa7490e03b25a22195e06d221e7b7e5194ce2e6a338fe999f922",
        "check-si.json": "ae38749db63e3d8de9c0ff4297a6aef2386a4baedf7164a1a6d868af1b271b37",
        "check.json": "6ad2dd4d19eb93d4ddfc505b326666fd1c55ec16eabdde1f429f604047def433",
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
    kept = PINNED_WITHOUT_WF_LASSOS.get(name, {})
    assert {key: without_wf_lassos_digest(files[key]) for key in kept} == kept


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
