"""Byte-identity of the shipped outputs.

Pins the sha256 of summary.json and of every trace_*.csv that `run`
writes for each shipped config, at the config's own seed and at
--seed 0, 1 and 101, and of the trace of a dense box-pair contraction at d = 8
(every shipped config is 1-D or in sequence mode).  Also pins what `run`
prints for the two negative controls, whose violation lines carry witness
text, with the line naming the summary's path left out, and what `certify`
prints, with its exit code, for an accepted candidate and a residual miss
on three configs.  A change that alters any byte of these must update the
digests on purpose.
"""
import hashlib
import math
from pathlib import Path

import pytest

from proxcycle import (
    SIDE_AB,
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
    ('flip_negative.json', 1): {
        "summary.json": "47381104822aa29d7f534dc99cc94dfe87d737e90f551a2758b9fbc6f0202145",
        "trace_000.csv": "c29ad6082f1920dd2db549ee9de64a3e4c4234d8931c504b569f96c25b9f4008",
    },
    ('flip_negative.json', 101): {
        "summary.json": "bbb24d2ab5be0efe5a7ef347edb41085e1210b1552fff24e254486b93ec3ad19",
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
    ('interval.json', 1): {
        "summary.json": "7c0a890a0e3232c40cb49b49672d4b77e1761602f1c41efb83fa40656b4cb6c9",
        "trace_000.csv": "56375944b17fe84adddaaab2aa26353c0286ec4afc3547e8c0d50b240925d991",
        "trace_001.csv": "092acb36b7ad42948781ef85f721f6a25a6b16304b8a7d95b5c949e9e3dae4a2",
        "trace_002.csv": "2285a711fcd7167fe5c8a4308dc54c1586f5fc997f5f714b0fb02fe2445bc942",
        "trace_003.csv": "f71dc5df414d4d3f64c57882ec65c966a76514918691a83c25fef1fcff2a0328",
        "trace_004.csv": "f121c15ac43aac4c084cd84060ee047c91ba2f6ed8012d9c035942657332f2ff",
    },
    ('interval.json', 101): {
        "summary.json": "4cb56008d65dcf0e7ef93cd9ff049e14e438f2e710369eb527d3c404d05140fb",
        "trace_000.csv": "7912d7702dd30988b4e1b31c5e7054fb2cb71c6f16f5080daf08a72de60d8670",
        "trace_001.csv": "8829a61493a8a94dcc0b09ad4f66400e4b2331ded5996cb518c729f8dc371ce6",
        "trace_002.csv": "59228918994ac4ae5bc2a84b8fac4d1a3985c6d13b5567ff88c4b6d2af989c3d",
        "trace_003.csv": "b332bc686aa69832ec1bc94f5e7c4bece7f8a520052e0513696db074c99598c8",
        "trace_004.csv": "c31e2ee3929890eebf3dbaa91c2457d8fcceb54b25b99f98f3f5298326b1dda4",
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
    ('l1_kannan.json', 1): {
        "summary.json": "876509de602eb480aec23cce86b6ce1b9301288dd2556ff2083553bab986cee2",
        "trace_000.csv": "15624a85ca92915306ebab58db3c6720e847afcb7d91fc06c8f00c10258a1e46",
        "trace_001.csv": "0c90bb0d2d95362de7facbdd90fd1b1b4817017feeb9b77f0b6b56b21a9c5914",
        "trace_002.csv": "92d49e1678c3d12241f01d80f81e90f4cb3fe7686d172fef6cdb26a464cdd632",
        "trace_003.csv": "62775f4642e995a0c573de96f08e27d06e39464738ec9078c36306bc4c7d4e57",
    },
    ('l1_kannan.json', 101): {
        "summary.json": "5c224918690ff4479537a2f58ca2241ee2f07b05bc45a220f9578759f87d8fd9",
        "trace_000.csv": "5eed315e7c5422774ff9a9e61dffa55fde5819dc339208d997e569908e54d988",
        "trace_001.csv": "ec0a4236368424e0e02ba6b6d9d353865c94ac3d4222bde9ccab915145f87b09",
        "trace_002.csv": "993a5c9b955640932824bb522d7c44323bacfb87f924b91a78a603eaddc68969",
        "trace_003.csv": "608a74e94ddc58341af24745d8b07a7bdf2d4e49475e98057531c9cb26d32ebe",
    },
    ('non_cyclic_negative.json', None): {
        "summary.json": "5e613a3e9388458af17187706f2ab2c4e50f08efd76480ab94cb1b821217dd6b",
    },
    ('non_cyclic_negative.json', 0): {
        "summary.json": "bb00801bfe1efe388b622b2cacee97dc7d5509ba9f1a966e2d51c530c070ffb9",
    },
    ('non_cyclic_negative.json', 1): {
        "summary.json": "a400cf6426fb992896e77b542e4f8583183a5a9cf04fcc384bcf1622d07959a5",
    },
    ('non_cyclic_negative.json', 101): {
        "summary.json": "c22a73491140a10d6a39ec5ec7b3c0531e26debc40d012e1f15e3c613e91d672",
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
    ('overlap.json', 1): {
        "summary.json": "88880425f1d76dea3eb03677ac95bafb1c6b35e688656129a5749f882db726fe",
        "trace_000.csv": "569f11678e2d9ed1391269af4cb063dfe21b25456c0208613bbcb7702beb371b",
        "trace_001.csv": "e83b4eb8920c1c65e023ea57be5df8585f9b69ae46cdc8f576fc3f091ffdb0a3",
        "trace_002.csv": "e69367b3983139265d64bf8d44ec01006e7495b8fe0ae792f28d5c95265effbc",
        "trace_003.csv": "b075b44a7e212b2b9bd321be2cd953cd2ae25a63b6ff92c1f1620469ef43c17d",
        "trace_004.csv": "2a5354da7e7684e0def11828aa5ea9bb14fe93a0abbf558730e9a020e9dc87ad",
    },
    ('overlap.json', 101): {
        "summary.json": "c163d628be2a4bda7a6fbdb6eba2d36726c7fbb76773b708f25015786dcd7357",
        "trace_000.csv": "90a692e5c5c5ba3f59261902ae2024a4682134f217551af83ca83eb8558bbd02",
        "trace_001.csv": "f88c0835a287eed4206bf6ed8820a9088a6dd51c20aa17332e4d906870dcb2a4",
        "trace_002.csv": "0265e39c97779bf69f55879b54d192693275b11dbc3757558916abd878b2c548",
        "trace_003.csv": "c165a0e3d019b122e1ca5ed9bd3d1f42cdfb796eb16cda4e9dea8cf25061a610",
        "trace_004.csv": "415374de8b9770f1019e552d53e89e0cea84a87ad34c4822e6f82e3df268ed50",
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


STDOUT = {
    ('flip_negative.json', None):
        "f1b4a24c260528da07593dc5737f68036c47416b373e5b03166e89bbd1cc17a4",
    ('flip_negative.json', 1):
        "065eb414f1297c3abe9aafaa41d803bff558eaaa484f237c0e252435fbffd0b6",
    ('non_cyclic_negative.json', None):
        "aa357c1769b88e27377d50139569cd0ab98580e72d1548267eaf9e89288e0011",
    ('non_cyclic_negative.json', 1):
        "7f87a9da3ba325c49278c6157a53e6ecd17345f0e6da7fbd0d66f6753b8030b3",
}


@pytest.mark.parametrize("name,seed", sorted(STDOUT, key=str), ids=str)
def test_negative_control_stdout_is_byte_identical(name, seed, tmp_path, capsys):
    extra = [] if seed is None else ["--seed", str(seed)]
    main(["run", str(CONFIGS / name), "--out", str(tmp_path / "out"), *extra])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = "".join(ln for ln in lines if not ln.startswith("summary written to "))
    assert hashlib.sha256(kept.encode()).hexdigest() == STDOUT[name, seed]


CERTIFY = {
    ("interval.json", "[1.0]", "[-1.0]"):
        (0, "d89eb0890ff125cb7c5719a9ecb0a4a9a8e5ce6a8af1d8b509adaaaefb257542"),
    ("interval.json", "[1.5]", "[-1.2]"):
        (1, "9b4b0892e8a9f7c4e6712be0fbe82e95595196d0986c3819bfc3481fa838e2e1"),
    ("overlap.json", "[0.0]", "[0.0]"):
        (0, "d5d145ad3774a3d03dfabc53672f2395cb2f3e1ae11ce6ac37a4c1519b1542db"),
    ("overlap.json", "[0.5]", "[0.2]"):
        (1, "0a4e071ba15d248f277248705acdac9958a2af5a0d5c8bbbebe6d4cafa33b182"),
    ("l1_kannan.json", '{"1": 1, "2": 1}', '{"2": 1, "3": 1}'):
        (0, "871167a9f4d25f0625262318ee9de365e8b3232e0b31ae2cb7901bf786725f84"),
    ("l1_kannan.json", '{"1": 0.25, "2": 0.25, "5": 0.75, "6": 0.75}', '{"2": 1, "3": 1}'):
        (1, "ff7f6a067fa3b45d1c664c5cc8bb172e3fd207125a9b061a821ccc78b0831152"),
}


@pytest.mark.parametrize("name,x,y", sorted(CERTIFY), ids=str)
def test_certify_stdout_and_exit_code_are_byte_identical(name, x, y, tmp_path, capsys):
    code = main(["certify", str(CONFIGS / name), "--x", x, "--y", y,
                 "--out", str(tmp_path / "out")])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == CERTIFY[name, x, y]


def box_pair_map(d, kappa):
    """A = [1,2]^d, B = [-2,-1]^d; |x_i| - 1 shrinks by kappa on the other side."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=d)

    def ev(x, y, side):
        sign = -1.0 if side == SIDE_AB else 1.0
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
