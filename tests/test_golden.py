"""CLI stdout on a fixed set of commands, compared by SHA-256 digest.

The digests record the output of a known-good version; a change that alters
any answer, its formatting or the order of its output fails here.
"""

import hashlib
import re

import pytest

from heckeskein.cli import main

GOLDEN = [
    (["characters", "--n", "4"],
     "1f369f096a586a20c7c4ded6d94666dd5bdcf36d6ea28b5906e27d77147bab0d"),
    (["psi", "--n", "4", "--elem", "h2*e2"],
     "40831a9b49e95d0ded03a7c43e710146b3281c706cc1e553f207ff7e94752acb"),
    (["psi", "--n", "0", "--elem", "p1"],
     "5139946a363fc52d766dbb0731177a8ad1321883815d1da2d3e3c76ce9c176e7"),
    (["homfly", "--strands", "4", "--word", "1 -2 3 1 -2 3 2"],
     "451a31d7107f45c8b415e167ec136bdd7ac0a00acc93bb83b0cce2516584fa80"),
    (["closure", "--strands", "4", "--word", "1 -2 3 1"],
     "6707fe5d2e17926cf630868fe3359c774223ebbc38de17d2d2a1a2ae1341b5fd"),
    (["closure", "--strands", "5", "--word", "1 -2 3 -4 2 1 -3 4 -1 2 3"],
     "e7d063fe322ba4da1e2adfd888ba0c53f644845b715fdcaaff54bafc3a9fe8ed"),
    (["homfly", "--strands", "6", "--word", "1 -2 3 -4 5 2 -1 3 4 -5 -2 1 3"],
     "3e914de9ce9950bc6c1726e24ab2e6736832e03c550751b4398c7b2f8bca9614"),
    (["eval", "--elem", "h2*e1*p1*s(2,1)"],
     "4f6f7eb664797a5ce437cf48dbd08aa38c8d1914e5365076a9518d24e1253d59"),
    (["verify", "all", "--n", "3", "--degree", "3"],
     "66900efb8f88d14af1f651a0e2e7f03e4c9ac2bb4d5b25fcea7174900b633c34"),
    (["psi", "--n", "5", "--elem", "p2*h2"],
     "a22eb81c1c43ee0532c6b8da8989156a6ececa3d48a2bea2f7c2b6ed669aa327"),
    (["psi", "--n", "5", "--elem", "s(2,1)*p2"],
     "f5f8a63f1df89ab0ab8125a6f59632b8bfdbb845424e0f7117325f000ea18c2b"),
    (["closure", "--strands", "3", "--word", "1 2 1"],
     "60c8b5a42785251ff3a304e775bcebb7fe86baee6d18c0bf8bd685318aa52653"),
    (["closure", "--strands", "6", "--word", "1 -2 3 4 -5 1 2 -3 -4 5 1 2"],
     "9282e7e7948c778d1fd462778d053870aeb956ef4e2d10cd5e7982c2a7be3e26"),
    (["eval", "--elem", "p8"],
     "b24ce4bf3572e27a3e149e94ef3af190712ffbd7c40f268bccb4fb133feea525"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    # timings are the only part of stdout that may vary from run to run
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
