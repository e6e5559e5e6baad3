"""Golden outputs of ``loxcheck``: the sha256 of the exit code, stdout and
stderr of fixed argv lists, so that a rewrite of the kernel-word sample can
be checked byte for byte against the outputs it replaced.

Each digest is sha256 of json.dumps([exit code, stdout, stderr]) from
``cli.main`` run in process.
"""

import hashlib
import json

import pytest

from schottky_strata import cli


def _tuple(g, p, t, r, s):
    return ["--g", str(g), "--p", str(p), "--t", str(t), "--r", str(r),
            "--s", str(s)]


GOLDEN = [
    # the README tuple and three more shapes, all loxodromic
    (["loxcheck", *_tuple(26, 5, 6, 0, 0), "--max-syllables", "4"], 0,
     "75cb15688c02ed38234134a159657a93827bc20467b4a7619e97c8c0c21428ce"),
    (["loxcheck", *_tuple(9, 3, 1, 1, 2), "--max-syllables", "5"], 0,
     "c0d79c38a3d9292cd223ee36bb96e34287445e16e735d495819c27d333830420"),
    (["loxcheck", *_tuple(14, 5, 1, 2, 1), "--max-syllables", "4"], 0,
     "9f83cddcf1e7e8a5827e50059a20f78d50538ffa87354231ce3a81bc65b3da1a"),
    (["loxcheck", *_tuple(5, 5, 0, 1, 1), "--max-syllables", "1"], 0,
     "97a585fe5289f38511e781089acc9830890fe5f9f944b32e8df3edebbe0d4e32"),
    (["loxcheck", *_tuple(5, 5, 0, 1, 1), "--max-syllables", "6"], 0,
     "0a8d65906f4145adaa0e0de51974822cffa523eb0f83a32552f2f2f76b2abaf9"),
    (["loxcheck", *_tuple(5, 5, 0, 1, 1), "--phi", '{"e":[2],"f":[4]}'], 0,
     "43cab0675062cf8d3ae06765b1d925ec5aa0eb2a91eeeccb8f8cb119f9aa6459"),
    # crowded separations, where words fail
    (["loxcheck", *_tuple(26, 5, 6, 0, 0), "--max-syllables", "3",
      "--separation", "0.1"], 1,
     "bad2dd10f5320cc750bfe929952f05f622865105dd5b5ca9d93016ee321f41e4"),
    (["loxcheck", *_tuple(5, 5, 0, 1, 1), "--separation", "0.01"], 1,
     "c1fbe0caf5be3a37d7acda2d6e071be48b32fba72970665728c7a59ad41d7fa3"),
    (["loxcheck", *_tuple(2, 2, 0, 3, 0), "--max-syllables", "2",
      "--separation", "1e-12"], 1,
     "081064ebd3c728292a40ba1c73a8a225ebba2a4764a1c16313723afe45e9953b"),
    # refusals
    (["loxcheck", *_tuple(26, 5, 6, 0, 0), "--max-syllables", "5",
      "--budget", "100"], 2,
     "24bb0a9d6e806f6e979a26192e93a11a6b6fc80b1687b81876a72d4fbbd8875e"),
    (["loxcheck", *_tuple(4, 5, 0, 2, 0), "--max-syllables", "3",
      "--separation", "1e70"], 2,
     "27cdc5eb854e158674c4176c55725820dbdf4720cebb493b12d2045415d821b3"),
    (["loxcheck", *_tuple(5, 5, 0, 1, 1), "--max-syllables", "0"], 2,
     "54031b640a8298b23d303cd7f32ac4991536067520464eade33daa09c8c309fd"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv[1:]) for argv, _, _ in GOLDEN])
def test_loxcheck_output_is_unchanged(argv, code, digest, capsys):
    got = cli.main(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    text = json.dumps([got, out, err])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
