"""Golden outputs of the kernel layer, so that a rewrite of folding, the
Schreier generators or the kernel bases can be checked byte for byte
against the outputs it replaced.

CLI digests are sha256 of json.dumps([exit code, stdout, stderr]) from
``cli.main`` run in process.  Fold digests are sha256 of the JSON of the
Schreier words (letter lists) and the folded graph (each vertex's edges
as sorted [letter, target] pairs), for three seeded homomorphisms of
each (p, rank) shape of the benchmark's Schreier slots.
"""

import hashlib
import json
import random

import pytest

from schottky_strata import cli
from schottky_strata.freegroup import AbelianHom, fold, schreier_kernel


def _tuple(g, p, t, r, s):
    return ["--g", str(g), "--p", str(p), "--t", str(t), "--r", str(r),
            "--s", str(s)]


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


GOLDEN = [
    (["verify", "example1"], 0,
     "5f44f620f101db9c2ea45c73c25ec02692a5ae4f982bfdae1c6c20e5e0f2c8f6"),
    # the README tuples
    (["kernel", *_tuple(5, 5, 1, 1, 0)], 0,
     "8407436706fa54b2d30932f5d9a4f6b805e84738d5ca6bf0b0450aa35c785e95"),
    (["kernel", *_tuple(5, 5, 1, 1, 0), "--phi", '{"a":[0],"e":[1]}'], 0,
     "affec8ff95ca592091c3f413abd9ae007aee06295a54c5b70683758d16f3bda3"),
    (["kernel", *_tuple(26, 5, 6, 0, 0)], 0,
     "69ecbe05883da22170e0ef24c333c19f3b2716ac824353d1b945eeaf0dcf9a7f"),
    (["kernel", *_tuple(26, 5, 6, 0, 0), "--phi", '{"a":[1,2,0,3,0,4]}'], 0,
     "79801cf71942819403c8c1bd28a2fd94dfd6e9d329c331e8d5a91b34ccb637d6"),
    # the tests' tuples: a loxodromic pivot, a bare T_1, p = 2, a pair
    (["kernel", *_tuple(6, 5, 2, 0, 0)], 0,
     "53d33579eacb54db64a33ce6b5b1b60a1a568897ceb52ef182054ec4a74edc84"),
    (["kernel", *_tuple(6, 5, 1, 0, 1)], 0,
     "e3afce45fe548b68fc1cee7bd2f2a432d9e8f0de82d781232fed3ef377037f0f"),
    (["kernel", *_tuple(6, 5, 1, 0, 1), "--phi",
      '{"a":[3],"tau":[2],"f":[1]}'], 0,
     "e2b676bfd4e325e77d4e6d70169c0403cefc4ed9115797e23686da5217736860"),
    (["kernel", *_tuple(5, 2, 1, 0, 2)], 0,
     "b481d0b0f80781724b0a56dcee18a4c0e6d8512300ed017b35210fba399ed5b7"),
    (["kernel", *_tuple(5, 2, 1, 0, 2), "--phi",
      '{"a":[1],"tau":[0,1],"f":[1,1]}'], 0,
     "7e53a3bd51321f4dcab8d01b787077bdd0df2d3d14076d066c2ed114a10b2a92"),
    (["kernel", *_tuple(5, 5, 0, 1, 1), "--phi", '{"e":[2],"f":[4]}'], 0,
     "78f5a6ea2f29c8ae52aa5a2dd0bc71c47f27477bb8f1b11e9ca997d7e4364b80"),
    (["kernel", *_tuple(9, 3, 1, 1, 2)], 0,
     "06d0f411a4d38c1689dd11de15805cf2bbc0d83cb034559355636951b7779b15"),
    (["kernel", *_tuple(5, 5, 1, 1, 0), "--phi", '{"a":[0],"e":[0]}'], 2,
     "98e25686b59f3d65bfa7673493c935d7ea7c4f281931d5a3022aa1befd255e8d"),
]

# (p, rank k) of the benchmark's Schreier slots
SCHREIER_SHAPES = ((47, 12), (53, 11), (61, 10), (71, 9), (83, 8), (97, 7))
FOLDS = {
    (47, 12):
        "2ef20e4ef97845044259d0dbb404504b6eddaf03137e713697fe74f347ac5237",
    (53, 11):
        "a747f23f34456519e76f2ba2b29ac92454d2465a5a1e7182c55d9405a03b11ec",
    (61, 10):
        "27e0d06981541a71192013fcdedbf511e17ad1ef10b52c49f0db9bc57dbd8a7a",
    (71, 9):
        "00ddb19681e0391d3ce0f492b6a78d22fbd6b307d024262cee52f618efa7fa20",
    (83, 8):
        "37412ffa67c3c14ec2758a235c30ca53532f21b5a22acd87e0f8f9f04d0e6c81",
    (97, 7):
        "771aee218511963d5e66bf7dd89f4bb06db55aa41fd3210a0e80aecd1ae11845",
}


def _homs(p, k):
    rng = random.Random(p * 100 + k)
    for _ in range(3):
        images = [rng.randrange(p) for _ in range(k)]
        if not any(images):
            images[rng.randrange(k)] = 1
        yield AbelianHom(k, (p,), tuple((v,) for v in images))


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_output_is_unchanged(argv, code, digest, capsys):
    got = cli.main(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    assert _digest([got, out, err]) == digest


@pytest.mark.parametrize("shape", SCHREIER_SHAPES,
                         ids=[f"p={p},k={k}" for p, k in SCHREIER_SHAPES])
def test_schreier_words_and_folds_are_unchanged(shape):
    value = []
    for phi in _homs(*shape):
        words = schreier_kernel(phi)
        graph = fold(words)
        value.append([[list(w.letters) for w in words],
                      [sorted(map(list, edges.items()))
                       for edges in graph.adj]])
    assert _digest(value) == FOLDS[shape]
