"""Golden stdout digests of CLI reports.

Each entry runs one `chieflie` command in-process and compares the sha256
of its stdout with the digest of the same command at an earlier revision,
so a change that is meant to keep reports byte-identical is checked
without a second checkout.  A digest changes only when a report is meant
to change; replace it then, and say why in the commit.
"""

import contextlib
import hashlib
import io

from chieflie.cli import main

# `chief-series` on the jh_corpus algebras (every registry entry with
# n <= 4 and p <= 3) and on one GF(5) draw past the workloads; `jh
# --all-pairs`, text and structured, on the same algebras and three draws
# (seed 14's matches pair one- and two-dimensional factors, so a report
# reads both routes of l_isomorphic), and text only on a fourth draw
# whose matches reach both grows cases over GF(2) and on abelian(3) over
# GF(3), whose 52 series share their steps (their structured reports are
# 41 MB and 11.5 MB);
# `analyze`, text and structured, on the 11 registry entries (the
# cli_analyze commands), sl2(7) and two draws.
GOLDEN = (
    ("chief-series corpus:abelian --field 2 --dim 2",
     "d4db2314ec68594b489d76770138cae8320f2e01aa887669aef00d7df43df7b4"),
    ("chief-series corpus:abelian --field 2 --dim 3",
     "a32a06c3bd69fd6329490911ea2af556df33689c9e53287c623451604c045467"),
    ("chief-series corpus:abelian --field 3 --dim 2",
     "598f3be776eb7981ffc9154643532095643abc8b9801d4470c9b07cc38c8f490"),
    ("chief-series corpus:nonabelian2 --field 2",
     "e6f5f701d108d6c037356f05b78bd8ccfdb35e5173661abe9f727bdd48557d7c"),
    ("chief-series corpus:nonabelian2 --field 3",
     "e6f5f701d108d6c037356f05b78bd8ccfdb35e5173661abe9f727bdd48557d7c"),
    ("chief-series corpus:heisenberg --field 2",
     "cd4bcf277e74426a7502e08abf636cb97b571f6591b82cad043024472d8d91dd"),
    ("chief-series corpus:heisenberg --field 3",
     "b318112c7aae049f43018f6fdf271f490283558eabeb0fcef5cf6e5336290c03"),
    ("chief-series corpus:r4 --field 2",
     "8edd2c153f51c83f19371a5d241fee6786bf25b91dab7fb73f287301bcfb1543"),
    ("chief-series corpus:h3_plus_line --field 2",
     "6fdc086939ce89cd5c97daa19376335288a2c9e15cd03d9c1fc24699b8af0b56"),
    ("chief-series corpus:random --field 5 --dim 6 --seed 1",
     "809726159751f38e8ea6d46d21555fc694133359ef1188316d62d7ab661970c7"),
    ("jh corpus:abelian --field 2 --dim 2 --all-pairs --format text",
     "08f7cc55d5074784cb1e5969aa4f54fdb140a156155ea2d20ae6c4c846d26b29"),
    ("jh corpus:abelian --field 2 --dim 2 --all-pairs --format structured",
     "b9df1dc25a57822f6d2ea7662698b3429d64b06093095f94c3d6a48098936766"),
    ("jh corpus:abelian --field 2 --dim 3 --all-pairs --format text",
     "ec22a734291e034dde9618ca8cdcec6e8d1910b1927aaa08bbc82670ab38c9aa"),
    ("jh corpus:abelian --field 2 --dim 3 --all-pairs --format structured",
     "476c260d424e100fce72ba110bc051160648334a374aea852722102f9e481d2b"),
    ("jh corpus:abelian --field 3 --dim 2 --all-pairs --format text",
     "82e787638362a51fc2a33593206d09ea77d32a888ae5df38721c7765a262d880"),
    ("jh corpus:abelian --field 3 --dim 2 --all-pairs --format structured",
     "e8921f3e800e8193ceb7fcf5c906009efe477521fe4c10988e20f640685d36ae"),
    ("jh corpus:abelian --field 3 --dim 3 --all-pairs --format text",
     "253441edf819aa9e538fc1d64577c4f3068d8edbec7617c3a61e481150178bb0"),
    ("jh corpus:nonabelian2 --field 2 --all-pairs --format text",
     "64d053777f6a102349140d2be33dd3b46d991a7f59ac09b87ac9ee56ff4dd488"),
    ("jh corpus:nonabelian2 --field 2 --all-pairs --format structured",
     "f3673f21b262b334cc9ab51d4315891d26d1868a3c154e94f30bb54736410785"),
    ("jh corpus:nonabelian2 --field 3 --all-pairs --format text",
     "64d053777f6a102349140d2be33dd3b46d991a7f59ac09b87ac9ee56ff4dd488"),
    ("jh corpus:nonabelian2 --field 3 --all-pairs --format structured",
     "d9ff1b622390e049665f0b35d45a0c29ae2d8fdef8eb236a07020dc1c5625ef1"),
    ("jh corpus:heisenberg --field 2 --all-pairs --format text",
     "ab866956986d836b78de2834da09946ec12e76a4dfd5f4f72b4481e4f928c7f8"),
    ("jh corpus:heisenberg --field 2 --all-pairs --format structured",
     "72d208af883f78fc631bb30e943c4506983c1fb50696f8ace3f35d77f761e9e4"),
    ("jh corpus:heisenberg --field 3 --all-pairs --format text",
     "cb55b13dc16bcc0ce74b9b1e6024b5472932d1c5fef0c73e65a9c1d53957ae6e"),
    ("jh corpus:heisenberg --field 3 --all-pairs --format structured",
     "9a5da3f4e111f7c0bc30c08b5ac706e66e87e55f43c8f9938cea4bf08d58f716"),
    ("jh corpus:r4 --field 2 --all-pairs --format text",
     "ec22a734291e034dde9618ca8cdcec6e8d1910b1927aaa08bbc82670ab38c9aa"),
    ("jh corpus:r4 --field 2 --all-pairs --format structured",
     "93952ad3991d84e459e2e92eb3001157b3ab689bd2da20ee6ac1514d672c53e5"),
    ("jh corpus:h3_plus_line --field 2 --all-pairs --format text",
     "0d1f02673ae5f7eea70d47f12973ea59d7dd563d6b4a37eff6d0ffa563bee5b8"),
    ("jh corpus:h3_plus_line --field 2 --all-pairs --format structured",
     "b9e8cafdaf7f5ed4800aaa6b4f7f538f70d607da2b2469191edda2fb184b1b50"),
    ("jh corpus:random --field 3 --dim 5 --seed 43 --all-pairs --format text",
     "ee3a9aafad4809e9df49f22896210b90fa8ae978038dfce03e0922e6daececd8"),
    ("jh corpus:random --field 3 --dim 5 --seed 43 --all-pairs --format structured",
     "3c2dbf298ca3e0a26e905654234be38f2965ddd818b1ce13dbec10275315d544"),
    ("jh corpus:random --field 2 --dim 4 --seed 46 --all-pairs --format text",
     "7f7130fb78a1fd7ae70aad101570bad35ccccdb69e9d870d85d13ce55f2a62da"),
    ("jh corpus:random --field 2 --dim 4 --seed 46 --all-pairs --format structured",
     "629345b231f7d63e291d03be9a4e40ca4a369b33a15a589c5f332c7c582e6d5e"),
    ("jh corpus:random --field 2 --dim 5 --seed 14 --all-pairs --format text",
     "638f37d828f3c168cacc85c3957796e61a3ca8347ec47398373b60ad5d5aa9b4"),
    ("jh corpus:random --field 2 --dim 5 --seed 14 --all-pairs --format structured",
     "75d9e755f503fe03b1a0c2390ceb3161c04c70e84f3944e169115feb12f334b9"),
    ("jh corpus:random --field 2 --dim 6 --seed 24 --all-pairs --format text",
     "10b719cf48fc5e56a7bcbcea0ba7e17bbe6de2eb21aa382a4339d756f3479fff"),
    ("analyze corpus:abelian --field 2 --dim 2 --format text",
     "7c0f5a7d63de4e9ced2635240e63e42e74f7ba56918ebbef3acba5dae3d6db36"),
    ("analyze corpus:abelian --field 2 --dim 2 --format structured",
     "3507fea7cbcc0ce78ce85babac491698b62649542a304add9d4fbcb80e5faebf"),
    ("analyze corpus:abelian --field 2 --dim 3 --format text",
     "b6165e5dcc663646f483075440f0cd3c353d04b2e19b311ee60ed0c04662605c"),
    ("analyze corpus:abelian --field 2 --dim 3 --format structured",
     "f33563528bab140f6d2d0ee99064f43a5d2a223d139ab40f8112862a3983f7d0"),
    ("analyze corpus:abelian --field 3 --dim 2 --format text",
     "d60e3e435bfec7f8fa4df042f2234a17070b767f0bdf49c38094f8cb87c274b4"),
    ("analyze corpus:abelian --field 3 --dim 2 --format structured",
     "6a839737586fd5d383297a361ac6aea6852409adae158070c95e1ae540afb748"),
    ("analyze corpus:nonabelian2 --field 2 --format text",
     "4df0e238b4e480fb71a18f170bed79faf91f4a6b2f7aba233a900f822305db3d"),
    ("analyze corpus:nonabelian2 --field 2 --format structured",
     "dee66146d98f9cce483f9ed787fdfaf05a098b86a2d9d077b684bc9c83e76db8"),
    ("analyze corpus:nonabelian2 --field 3 --format text",
     "6a195dedee3f5798d8a0375136c2d0fbe47313dd224cff7bf5164c916adf9556"),
    ("analyze corpus:nonabelian2 --field 3 --format structured",
     "2839d4705fc0c663e57c8b3a12fa5ad461a19449db106345fc034026eb6309e3"),
    ("analyze corpus:heisenberg --field 2 --format text",
     "1c3100ab6460cef4684219aba6e3a149ff30648cc76328fac236c84eee73a34d"),
    ("analyze corpus:heisenberg --field 2 --format structured",
     "424bb0342a5407c9ab9628b1d1d54a35b5d7bbbe2fba30775b517a38cb67ea8b"),
    ("analyze corpus:heisenberg --field 3 --format text",
     "14740ed33f7c47006920f6ca6f48be8d760dc20c10f910a57d8a68e12430c50d"),
    ("analyze corpus:heisenberg --field 3 --format structured",
     "ce5104f12c47ec2a42e2e6e90716cd3b0b95bc6fe25fc6c2e1db5e488dfc0a3b"),
    ("analyze corpus:r4 --field 2 --format text",
     "a4553f5cf5f61a94d8561ab55899e9cceefb26cacf834706cd49610c9a971581"),
    ("analyze corpus:r4 --field 2 --format structured",
     "3a4854927166971394b12bf444a99137d582fe8324a7d039606e56bbbdc870fc"),
    ("analyze corpus:h3_plus_line --field 2 --format text",
     "9aa34845c7a336d7fc081684ecb2ad10ca1a856543cc5cadd6786fe923eda6cd"),
    ("analyze corpus:h3_plus_line --field 2 --format structured",
     "3f3835dcdf78ae4250a293dbd208b66e3bc5c4cda74000334aa6cd4d316e1a3a"),
    ("analyze corpus:sl2 --field 5 --format text",
     "d48280d026e8ec9ad55227395d8c8756e8b6f7cf72f3393a9d998cccf2da993a"),
    ("analyze corpus:sl2 --field 5 --format structured",
     "d6fbb30cb454a40d291fa16abdf3a697bde001ae7aa7e76f8e4c5eda2ba5e0e2"),
    ("analyze corpus:sl2sum --field 5 --format text",
     "1ec4c658a5e4a9b958440ad2d63b56a152e52fc1e0b399c49ddcc624c919f476"),
    ("analyze corpus:sl2sum --field 5 --format structured",
     "ff64584f3f29192925b2a3dd7f02c47350fd85b4d026d7803f2576b084d294f1"),
    ("analyze corpus:sl2 --field 7 --format text",
     "2b9b87e7886e3136a3fc3364c9b1f39c98b01b4055a2ba4f12b509df656b4380"),
    ("analyze corpus:sl2 --field 7 --format structured",
     "bf5a265ce63a0c41b1e3de7592749de9fc146a7c5585de431f33873fc14a8a15"),
    ("analyze corpus:random --field 5 --dim 5 --seed 1 --format text",
     "42ddcf04c4fb72e343023b08ecdc40526bd43fe443c37bec5bcfe05ec0588703"),
    ("analyze corpus:random --field 5 --dim 5 --seed 1 --format structured",
     "dcddf1bbb66e377616fad78c271b129d8c237432ad9d1bc9699c2a5aa33f9f67"),
    ("analyze corpus:random --field 3 --dim 6 --seed 0 --format text",
     "b6238976c29804dc1aeedd55dcd94666c05b1febafcc6a5efc1df0c16e6ced9a"),
    ("analyze corpus:random --field 3 --dim 6 --seed 0 --format structured",
     "71cc21374c0ec6fa153f020ff139cee93280e654cde082e8271bfafb7abb4a37"),
)


def test_cli_reports_match_golden_digests():
    changed = []
    for argv, digest in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, got) != (0, digest):
            changed.append((argv, code, got))
    assert changed == []
