"""Window-12 outputs of every subcommand, and `minmodel` at window 14,
pinned by SHA-256.

The digests were recorded while every matrix entry and coefficient was
still a `Fraction`, so they hold the integer-first arithmetic to the bytes
it printed before: `verify --format machine`, the five `export` documents
and the default text `circle` report, which prints coefficients through
`poly_str` and `str`.
"""

import contextlib
import hashlib
import io

import pytest

from dgmodels import cli

WINDOW = "12"

ARGV = {
    "verify": ["verify", "--format", "machine"],
    **{
        f"export-{what}": ["export", "--what", what, "--format", "machine"]
        for what in ("document", "relative", "total", "fixed", "equivariant")
    },
    "circle-text": ["circle"],
}

# (exit code, SHA-256 of stdout); `export --what fixed` on a fixture with an
# empty fixed set is a precondition error, exit 2 with nothing on stdout.
PINNED = {
    ("verify", "almost_free_hopf"): (
        0,
        "4672ab4e6bbe483bbd695280002c064155189a7e034d839dc58c66a78d192fff",
    ),
    ("verify", "cp2"): (
        0,
        "fe81b1f8d29740e88ccb21e413e5300279478c2c1dd34a0da4f9853e038ce2bb",
    ),
    ("verify", "flow_s4"): (
        0,
        "c95f51729bd5099c6192064e47e4fd73be9e05983b65152f963c6d3ec8661dca",
    ),
    ("verify", "nonformal"): (
        0,
        "82560219c448564a986ce913bd55fb0f454ab4fa1de1e2cdf4f7e53d624607ae",
    ),
    ("verify", "s4_hopf"): (
        0,
        "58a00b3170ac0d25cc7c66a2508db6e4fb5930f196167c65d194ea4087385e8f",
    ),
    ("verify", "semifree_suspension"): (
        0,
        "f9c321c35aa22b96b6ef80d5417a72f1f501cd3786fba3be74000d4bace190f8",
    ),
    ("export-document", "almost_free_hopf"): (
        0,
        "29ac430a10b4112211e8f44564cf0bea527142b0775a4a9760a502b7adb95e8a",
    ),
    ("export-document", "cp2"): (
        0,
        "7731ea2eab05bc138a907616531d3d870dca65042b55985b73a5bdfa1f38f43d",
    ),
    ("export-document", "flow_s4"): (
        0,
        "3621eb84be8f8ee4af7dc3098f69e1c2cc330acd67f6174dc5858bee02fa253e",
    ),
    ("export-document", "nonformal"): (
        0,
        "1bde4e753839a637083f54c1bbd3eb8bde7286aaed7e24c11299dcde690a6814",
    ),
    ("export-document", "s4_hopf"): (
        0,
        "cc17c81e9dd73308801f814e6b74a01c5f7ac21a34a796658950403c9b97f090",
    ),
    ("export-document", "semifree_suspension"): (
        0,
        "69917bb56f9f8fc64375c6a173cb943cc473343fda9b510e97e8de7d6138281b",
    ),
    ("export-relative", "almost_free_hopf"): (
        0,
        "3369de4c1b9121fd7d138c3cfd8db00b026db84446fca92bb178522c2b93af4c",
    ),
    ("export-relative", "cp2"): (
        0,
        "fa250098860a0f3c0ae3ef9e32e6a7043d2b8c320a1f83f339397e5032eed5d4",
    ),
    ("export-relative", "flow_s4"): (
        0,
        "f96a638dc62304905826fc7595f943ffeda91a6353f327d98733ed6d90a1b74c",
    ),
    ("export-relative", "nonformal"): (
        0,
        "1cdff1f9ff706e38a494932b0d59295e59f45c25421cd4cc9edd34202cc3c335",
    ),
    ("export-relative", "s4_hopf"): (
        0,
        "f617babae5875ff6f50eb1c5e60fd4c32b42e36dd1c68997734f8aff8a0c7fdd",
    ),
    ("export-relative", "semifree_suspension"): (
        0,
        "65b9ec32400a699889bdd9ac198b76df02fbb8517117bb67d8827bd8d17c3e1e",
    ),
    ("export-total", "almost_free_hopf"): (
        0,
        "92d45105ec6e4afdedfca1586d394138029e0ea8798dd6cae77b2ac3db07f008",
    ),
    ("export-total", "cp2"): (
        0,
        "2ca053b6b0872106790e7e98b0f22e7d0fdc6bacefeea773c1b98e3f685ae0d4",
    ),
    ("export-total", "flow_s4"): (
        0,
        "0cb73b16866c802f8854c3349c0480c70c1fd5c6070cbc7ce1df168342674f15",
    ),
    ("export-total", "nonformal"): (
        0,
        "9decdc4a0e9c68b7a18ffbab75c4fc8125a0c864d448716dfee68fcfff9028c1",
    ),
    ("export-total", "s4_hopf"): (
        0,
        "6fb0d8eb12f2b276ed9f4201cf2ac675147c09e9e1bb043adc133fffdf75ae10",
    ),
    ("export-total", "semifree_suspension"): (
        0,
        "be7e823cfc755b64dadf42c61aca04f6db3be2866f8a3528745cd2bd5c201a07",
    ),
    ("export-fixed", "almost_free_hopf"): (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("export-fixed", "cp2"): (
        0,
        "eeb4d045a6ab342ea96fe22fc8fada5d7144c20054a7efe00c16daca9a9627cb",
    ),
    ("export-fixed", "flow_s4"): (
        0,
        "210619d1beaf3619fd79eea6e0b447af0c9c29159d13c0ecfed649eef7f2ad42",
    ),
    ("export-fixed", "nonformal"): (
        0,
        "22561aa3913f14f32daed76e7271d29bc6779d47f7218ab83e09d54d805473a7",
    ),
    ("export-fixed", "s4_hopf"): (
        0,
        "e60aa101d697a20b24a2e9a40373e27b154df7ce6e913e915c3640c6b72eb092",
    ),
    ("export-fixed", "semifree_suspension"): (
        0,
        "696df7018ee2edfa1ec4a7c3baba95db0e39c1a4a622fb9d823c35e579c3fa92",
    ),
    ("export-equivariant", "almost_free_hopf"): (
        0,
        "968ab52e8237a4ff9ebabbd2bde6a75bbe332728d13b792543ddc786bd575ce1",
    ),
    ("export-equivariant", "cp2"): (
        0,
        "d9b5eecbd3628623126e3fd8af99f440d6e4748fc1c4e42bb2ab78e8fbcbb0f5",
    ),
    ("export-equivariant", "flow_s4"): (
        0,
        "e6e771d277a218f300d0b4583cfbcc79e8119011aa2569b9ca964d4d19dc0a8f",
    ),
    ("export-equivariant", "nonformal"): (
        0,
        "ea495e5db6e58c19652e0a6e4d4792ef532fad46cc78f1410a2283a71465b26a",
    ),
    ("export-equivariant", "s4_hopf"): (
        0,
        "dcdc2d05c743d72939df396e1fea972bdbb4923bb6bcd7340fcd0ca9dd89d458",
    ),
    ("export-equivariant", "semifree_suspension"): (
        0,
        "5e36214ca44646f2def13d16ef7bd72a9c6209ee9eaf996a455f0016e8727e73",
    ),
    ("circle-text", "almost_free_hopf"): (
        0,
        "343056ae79de7fd5a34f4c31ec961771b71a7cd83c4707dfe229508cad4c29b8",
    ),
    ("circle-text", "cp2"): (
        0,
        "bdcee506f52fcdfe54eb5c5f4c66c44f1054d2247a40695ba05a2111e6ab24be",
    ),
    ("circle-text", "flow_s4"): (
        0,
        "e95a08a355bd0030138e27a5e96de4eef88aa9014b390c22b5620775fe834309",
    ),
    ("circle-text", "nonformal"): (
        0,
        "a4ed7df297bbb6fdc0d73c1383a42aaf7d6061833ee8828b183312f3e1a0eb4d",
    ),
    ("circle-text", "s4_hopf"): (
        0,
        "3077dd776325a75655d6c522b10f2f56f56da012af7890f0d3f0a9ff21baf567",
    ),
    ("circle-text", "semifree_suspension"): (
        0,
        "7cb30c837f048f2c4357a2c0e826c8ed80ed4670f6650e7b7a8810c1ab90435d",
    ),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("command, name", sorted(PINNED))
def test_window_12_output_is_pinned(command, name):
    code, out = _run([*ARGV[command], "--fixture", name, "--max-degree", WINDOW])
    assert (code, hashlib.sha256(out).hexdigest()) == PINNED[(command, name)]


# `minmodel --max-degree 14` in machine format and in text: the generator table,
# both Betti tables and the monomorphism degree, recorded before the window
# check counted ranks of the relative complex instead of computing cohomology.
MINMODEL_ARGV = {
    "minmodel": ["minmodel", "--format", "machine"],
    "minmodel-text": ["minmodel"],
}

MINMODEL_PINNED = {
    ("minmodel", "almost_free_hopf"): (
        0,
        "d8b2b9b7a7ad3f5d9364d56be73babb222458b37a31bcfa386b35dc65ba38a10",
    ),
    ("minmodel-text", "almost_free_hopf"): (
        0,
        "dd4dd9ac8ec8fcff3746bf6f3871fbdf70d040964a55bbafc2037959c3b46145",
    ),
    ("minmodel", "cp2"): (
        0,
        "63ee61f96869aae81a8a2bc5766fb363b5c8a2538f35ceee6e0f162a62f5adab",
    ),
    ("minmodel-text", "cp2"): (
        0,
        "1e5b99a79ba9c73068fd6290c559503adb7341c58718490f9c3cdeacacdd303e",
    ),
    ("minmodel", "flow_s4"): (
        0,
        "218a05b2a9a1ddb2407179aa40b88173c2c38980f54672caabbf5ac25fe675e4",
    ),
    ("minmodel-text", "flow_s4"): (
        0,
        "cf203a5ecca9ae7df9be471ba458f1a3ffc6649df9a64efa0278578e190cb7e8",
    ),
    ("minmodel", "nonformal"): (
        0,
        "916c1cd93bc3bda4da85e5188e3d5040be129a18844d9b3cb077b208a4dfe46e",
    ),
    ("minmodel-text", "nonformal"): (
        0,
        "386a80b5e52efd2d2286b3d64d86ea1a08ffa7a0082d72896e3dbc0261c87f9f",
    ),
    ("minmodel", "s4_hopf"): (
        0,
        "78ecd3070d5ff00bef3e5e0659238fc6006918eae42c6843cd51558b5cdc18cf",
    ),
    ("minmodel-text", "s4_hopf"): (
        0,
        "23e2bfa6c7cb89c8be4735d87af8206b6aa4da630471f2356f35eca39fe2a24e",
    ),
    ("minmodel", "semifree_suspension"): (
        0,
        "ea175229037a57320ffd2ac63bceb6c6e118957ed2c959309a2ab986d00c70ba",
    ),
    ("minmodel-text", "semifree_suspension"): (
        0,
        "c4f18b785af92ffa35673dacbf6c21efa390c062271f2fa8bd170903ede5f843",
    ),
}


@pytest.mark.parametrize("command, name", sorted(MINMODEL_PINNED))
def test_minmodel_output_is_pinned(command, name):
    code, out = _run([*MINMODEL_ARGV[command], "--fixture", name, "--max-degree", "14"])
    assert (code, hashlib.sha256(out).hexdigest()) == MINMODEL_PINNED[(command, name)]
