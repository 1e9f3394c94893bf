"""Golden outputs: SHA-256 digests of data files from fixed CLI commands.

The digests were recorded before the lattice-set kernel was rewritten;
any refactor of the set representation, the generator action or the
perimeter routes must leave every byte of these files unchanged.
"""

import hashlib

import pytest

from heislab.cli import main

GOLDEN = {
    "isoperim-corpus": (
        ["isoperim", "--k", "2", "--corpus"],
        {
            "ratios.csv": "90e98ed7d32404d3d4bb3e93aa0f4c71ea43d54cc8413d558bf97395e0330340",
            "summary.json": "53f46d13299df951561b48f2bbe0fd4c95d1f3a968e18dc0691c8fb30d19978d",
        },
    ),
    "isoperim-box": (
        ["isoperim", "--k", "1", "--set", "box(4,4,8)", "--lq", "1.0"],
        {
            "ratios.csv": "4553ff8f4f1a9cf056348d31fd582c527f5f9e596a3c56bffa071fce91c265ad",
            "spectrum.csv": "b00ecc17c68e8668f9a53097ae9fe3374a304fadfc821964f61944ff87a5e19b",
        },
    ),
    "isoperim-blob": (
        ["isoperim", "--k", "2", "--set", "random_blob(500,3)"],
        {
            "ratios.csv": "a84f6e6d726121761bf1b1d19a9777e783f419ae991057a7774121de02f1442a",
            "spectrum.csv": "3af627768a0ea69288b965f1d1e7aa79f511b3d2c0c14d909b37625d759817dc",
        },
    ),
    "growth": (
        ["growth", "--k", "1", "--r-max", "6", "--z-powers", "8", "--dump-ball"],
        {
            "growth.csv": "dff2dc611dbd67928068409ff1bc0ee674624811cc933e592b31dc057ecd74ee",
            "z_powers.csv": "8424a6c8d2e37270adc0721e4ec3115d27894f7b907fb69f70264739c0c6ab9d",
            "ball.txt": "3fe54119f2e130bdee3b9bfaad9e97143016f8f08df36b0c5de4903e2095f768",
        },
    ),
    "poincare": (
        ["poincare", "--k", "1", "--set", "random_blob(200,5)", "--values=-3,4",
         "--seed", "2", "--local", "2", "--alpha", "2.0"],
        {
            "poincare.json": "ebdf8358d1966e337e30525915c51d57b17a43fd69005c2a0540226ea2f3c008",
        },
    ),
    "voxelize": (
        ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.25", "--seed", "5"],
        {
            "voxels.txt": "a92d805d263780bcf2a51a45ca58a53f513ee97fae5181f0e63084b8b2c6c500",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(tmp_path, name):
    argv, digests = GOLDEN[name]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    for fname, want in digests.items():
        got = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        assert got == want, fname
