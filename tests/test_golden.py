"""Equal seeds reproduce the committed outputs under ``tests/data``.

The files were written by the CLI before every detector moved onto one
prepared ``Receiver``. A refactor must leave them unchanged; regenerate a
file only for a change that is meant to alter results, by running
``python -m obdk.cli <argv> --out tests/data/<name>`` with the argv below.
Results files compare byte for byte, except the ``bound`` rates of ``sep``
and ``bound`` runs: they are sums of ``exp`` terms whose order follows the
scoring blocks, so they are compared to 1e-12 relative and every other
field exactly. ``bound_chunked.csv`` was written before the bound moved
onto the sphere table; its one group of 65536 patterns x 256 codewords is
scored in four blocks. ``table_k4096_30db.osd`` was written while the
table was still ranked by a full stable sort; at 30 dB many sub-codewords
score exactly alike, and 402 of its 2048 (group, pattern) lists tie at
their 4th entry, so it pins the smallest-index tie rule at K=4096.
``llr_k4096_30db.csv`` holds the soft outputs (``compute_llrs``) of one
observation at K=4096, written while they were still read from the
affine form of the whole codebook. ``ser_all.json`` is the only file
that covers all five detectors, ``mwd-exact`` and ``mwd-hs`` among
them; it was written before the drivers summed their per-channel
results through one helper.
"""

from pathlib import Path

import pytest

from obdk.cli import cli_main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "ser_criterion09.csv": ["ser", "-U", "2", "-N", "4", "--mod", "qam4", "--snr-db", "0,6",
                            "--detectors", "mld,mwd,osd", "--ns", "4", "--list-size", "2",
                            "--trials", "200", "--channels", "8", "--seed", "99"],
    "ser_all.json": ["ser", "-U", "2", "-N", "8", "--snr-db", "0,5,10", "--detectors",
                     "mld,mwd-exact,mwd,mwd-hs,osd", "--ns", "4", "--list-size", "2",
                     "--trials", "500", "--channels", "4", "--seed", "3", "--format", "json"],
    "tradeoff.json": ["tradeoff", "-U", "2", "-N", "8", "--snr-db", "5", "--ns", "8",
                      "--list-sizes", "1,2,4", "--td", "4096", "--channels", "10",
                      "--format", "json"],
    "table.osd": ["table-build", "-U", "2", "-N", "8", "--mod", "qam4", "--snr-db", "10",
                  "--seed", "7", "--ns", "8", "--list-size", "4"],
    "table_k4096_30db.osd": ["table-build", "-U", "3", "-N", "32", "--mod", "qam16",
                             "--snr-db", "30", "--seed", "7", "--ns", "8", "--list-size", "4"],
    "llr_k4096_30db.csv": ["llr", "-U", "6", "-N", "32", "--mod", "qam4", "--snr-db", "30",
                           "--seed", "7", "--ns", "8", "--list-size", "4",
                           "--y=" + ",".join(["1,-1,-1,1"] * 16)],
    "sep.csv": ["sep", "-U", "2", "-N", "8", "--snr-db", "0,5,10", "--ns", "4", "--list-size", "2",
                "--trials", "1000", "--channels", "10", "--seed", "7"],
    "bound.csv": ["bound", "-U", "2", "-N", "8", "--snr-db", "0,5,10", "--ns", "8",
                  "--list-size", "4", "--channels", "10"],
    "bound_chunked.csv": ["bound", "-U", "2", "-N", "8", "--mod", "qam16", "--snr-db", "5",
                          "--ns", "16", "--list-size", "4", "--channels", "1"],
}
BOUND_RATES = ("sep.csv", "bound.csv", "bound_chunked.csv")


def _rows(text: str):
    return [line.split(",") for line in text.strip().split("\n")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_committed_file(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli_main(GOLDEN[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    want = (DATA / name).read_bytes()
    if name not in BOUND_RATES:
        assert out.read_bytes() == want
        return
    got_rows, want_rows = _rows(out.read_text()), _rows(want.decode())
    assert len(got_rows) == len(want_rows)
    rate = want_rows[0].index("rate")
    for got, row in zip(got_rows, want_rows):
        if row[0] == "bound":
            assert float(got[rate]) == pytest.approx(float(row[rate]), rel=1e-12)
            got, row = got[:rate] + got[rate + 1:], row[:rate] + row[rate + 1:]
        assert got == row
