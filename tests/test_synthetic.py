"""The planted demo graph: its files are pinned byte for byte."""

import hashlib

import pytest

from iterkg.synthetic import make_planted_dataset, write_dataset


@pytest.mark.parametrize("name, lines, sha256", [
    ("train.txt", 2469, "b8e8ada13b5de5af8c5dcc87e95a59c3dce84f4ab16eeab8140ac5ba6a6afefa"),
    ("valid.txt", 3, "2c56b0e407dcc8d9fc78ea3082c81eea6029364d7f7051caceb4ea3e2f55e4b0"),
    ("test.txt", 15, "f4828ce1e54908a5548dce5f2d90c38b4eb1fdbc73a9b26d7a2b73a1458c77aa"),
], ids=["train", "valid", "test"])
def test_seed_7_files_are_pinned(tmp_path, name, lines, sha256):
    # the demo, the acceptance criteria and the planted-demo benchmark all
    # read this graph, so its bytes must not drift
    write_dataset(make_planted_dataset(seed=7), tmp_path)
    data = (tmp_path / name).read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha256
