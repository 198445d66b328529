"""Byte-identity of the shipped outputs.

Pins the sha256 of summary.json and of every trace_*.csv that `run`
writes for each shipped config, at the config's own seed and at
--seed 0, and of the trace of a dense box-pair contraction at d = 8
(every shipped config is 1-D or in sequence mode).  A change that
alters any byte of these files must update the digests on purpose.
"""
import hashlib
import math
from pathlib import Path

import pytest

from proxcycle import (
    Box,
    CyclicMapSpec,
    NormedSpaceSpec,
    StopRule,
    Vector,
    run,
    trajectory_to_csv,
)
from proxcycle.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SHIPPED = {
    ('flip_negative.json', None): {
        "summary.json": "ee233f61d54e0bd06043dcf26c9756ed9e6eb097ffd6e284fd521e01da02a428",
        "trace_000.csv": "c29ad6082f1920dd2db549ee9de64a3e4c4234d8931c504b569f96c25b9f4008",
    },
    ('flip_negative.json', 0): {
        "summary.json": "198513c832ede279bf2d9d8e8caf3f13553c6b07249da0e4cc84e5f031494a68",
        "trace_000.csv": "c29ad6082f1920dd2db549ee9de64a3e4c4234d8931c504b569f96c25b9f4008",
    },
    ('interval.json', None): {
        "summary.json": "e62382963009d7ce44f1ad062f905540ec50022687c3dad403fbb1c6deb2f523",
        "trace_000.csv": "4083c797d7eaf0ea29f74946e01e4dc4d6cb500d9fe3d5de8eccc38af064f508",
        "trace_001.csv": "46c54f519d51e1d8019dafc9f8ac9f096655af10e6ace98ae0e181b679ca3ec5",
        "trace_002.csv": "d8d4f66abeabae6042b758b13c74d95884acbf53a75328f782c64453697bf64e",
        "trace_003.csv": "5417d6b6fd9c5388c396ba7c54f32bbc34bbc096064f7a2a112de4ed01555904",
        "trace_004.csv": "f74234145205a7cf3ff7cd89c0f01ff84b26778cd7711860b322b15dd92c9cdc",
    },
    ('interval.json', 0): {
        "summary.json": "da758a808baa21c1a378fdc08b787a968c001ad053c72add30549b9fceb52824",
        "trace_000.csv": "0cc05b3189b432442db3517dc0034c3195e5f5e7088e519195c65439641584ff",
        "trace_001.csv": "12e36f8be7b4bb3acaa3d53b5fa214e5878c06b11046c1d5daac00618d7c97eb",
        "trace_002.csv": "9e44a29fef443a4ee01822fc627cd880bf90393490623e8cee2ce9c94540ea96",
        "trace_003.csv": "7fc4d450a5fabda138ac352b4b1b1c31af1a6203b9b94356899e877515261f02",
        "trace_004.csv": "6dbdb31b7749c7d6f53b37bde3af6a78939c358c068533f158e31f1dc64850d6",
    },
    ('l1_kannan.json', None): {
        "summary.json": "2f15a8286ab0bf1663987b7e9ff99fce2c7bf37adff81f9c69fb9dc8c9a38529",
        "trace_000.csv": "cb526a4c1eae26702b4d0317e8145f1c1e94e7dd17a07a96b8b95cb60668e418",
        "trace_001.csv": "fc65020909c7922981dd2ee0bfc4dbe692241d72a8ae677517c7b02aa4f04053",
        "trace_002.csv": "69236ae2a3f4687c78ca3515bdee1102d17c705a7bab8af0c165fdb0ac9a46c7",
        "trace_003.csv": "f8f3d09183bc47515c3b59e56d02e407e08ec384b23b475d06ab8812503ac3d0",
    },
    ('l1_kannan.json', 0): {
        "summary.json": "8ff58617be3535be0e6585e48866eaacafbbafcb8ae1a3aac89741bb0f33374b",
        "trace_000.csv": "ed8ffc930e5dd803bb5fad8066ffa4ea47db3d4fda4b5d0a0ef6dea4ebc33d37",
        "trace_001.csv": "ab9377895ab8fdfaa9743638b9cbc0b3a867bdca55771edb53c77283d6437d84",
        "trace_002.csv": "c7e7e10820b626242eba9e165f470b9a3e1f54c666fa7dcfbfe1346ccbc94d8a",
        "trace_003.csv": "3c25a44b9b1727aecbb43a394de0753a84728094e843af548a0151ae6761da99",
    },
    ('non_cyclic_negative.json', None): {
        "summary.json": "5e613a3e9388458af17187706f2ab2c4e50f08efd76480ab94cb1b821217dd6b",
    },
    ('non_cyclic_negative.json', 0): {
        "summary.json": "bb00801bfe1efe388b622b2cacee97dc7d5509ba9f1a966e2d51c530c070ffb9",
    },
    ('overlap.json', None): {
        "summary.json": "002c9d5ae115d016242b4d0d70046190ff220b9bef0a1d6374ee3783bb6bfacd",
        "trace_000.csv": "4e92858103332da536f76edf2baa97290ebafbbc5c26fdff29b6c1a24e8c703d",
        "trace_001.csv": "513ed2a00492fb3cbe9dfad5dbf547ac20bebe8c5bd6eda8e899f9bfb2ec36ac",
        "trace_002.csv": "bc75f6cd27c7724146374991ae7629512a026bf83ae0f01323c73c265f0f0d65",
        "trace_003.csv": "5e496e750ae7c3aadb291e997c3a29c618908d0a82bec453441da362dbaee54b",
        "trace_004.csv": "a20c7507f3956e35d6e915b702edafca273f86bf54d9b43dfaeb46054191785f",
    },
    ('overlap.json', 0): {
        "summary.json": "8561bb636c7a04a97c6233de1b9f523faccf21d1ff215688b73d884aa9a44e45",
        "trace_000.csv": "90024983cd61aa5c2706376f9ca082cb4622a29c7f3f71561289d04252c68d72",
        "trace_001.csv": "33cc275ab0143962fe7905f41020639ffa5935b0bcaac60168221f916cc44272",
        "trace_002.csv": "b80d437fab993cd5491e4115877693abbcd91689732046831282c24492597158",
        "trace_003.csv": "ecb7091cf0986976a23c3847609dc0e83fff3617a5b2db1c5c8eaea59f40c82e",
        "trace_004.csv": "eb8528d57fbc796e43c29621ede0640bcac2e3cd6644d688872b59753e10a974",
    },
}

BOX_PAIR_TRACE = "e19c3cf5727f04677ad9cb2a6f8ce1d55e7a73ca66c7d1577878869875fcb7b5"


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name == "summary.json" or p.name.startswith("trace_")}


@pytest.mark.parametrize("name,seed", sorted(SHIPPED, key=str), ids=str)
def test_shipped_outputs_are_byte_identical(name, seed, tmp_path):
    out = tmp_path / "out"
    extra = [] if seed is None else ["--seed", str(seed)]
    main(["run", str(CONFIGS / name), "--out", str(out), *extra])
    assert digests(out) == SHIPPED[name, seed]


def box_pair_map(d, kappa):
    """A = [1,2]^d, B = [-2,-1]^d; |x_i| - 1 shrinks by kappa on the other side."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=d)

    def ev(x, y, side):
        sign = -1.0 if side == "AB" else 1.0
        return Vector.dense([sign * (1.0 + kappa * (abs(v) - 1.0)) for _, v in x.coords])

    return CyclicMapSpec(f"box_pair_d{d}", space, Box((1.0,) * d, (2.0,) * d),
                         Box((-2.0,) * d, (-1.0,) * d), ev, declared_dist=2.0 * math.sqrt(d))


def test_dense_box_pair_trace_is_byte_identical(tmp_path):
    d = 8
    x0 = Vector.dense([1.0 + 0.5 + 0.03 * i for i in range(d)])
    y0 = Vector.dense([-1.0 - 0.7 + 0.02 * i for i in range(d)])
    traj = run(box_pair_map(d, 0.94), x0, y0, StopRule(max_iters=10_000, t_tol=1e-10,
                                                         gap_tol=None))
    path = tmp_path / "trace.csv"
    trajectory_to_csv(traj, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BOX_PAIR_TRACE
