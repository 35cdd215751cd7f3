"""``experiments/scale.py`` runs end to end at a small size, so that the
script still works when it is next run at scale."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "experiments" / "scale.py"


def test_scale_script_reports_generate_and_cluster(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--point", "2000,0.05", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in proc.stdout.splitlines() if line.startswith("| 2,000, 0.05 |")]
    assert [row[1] for row in rows] == ["generate", "cluster"]
    generate, cluster = rows
    assert "model.sample_edge_blocks" in generate[5] and "io_formats.read_edge_list" in cluster[5]
    edges = sum(1 for line in (tmp_path / "scale-2000-0.05.edgelist").read_text().splitlines() if not line.startswith("#"))
    assert int(cluster[2].replace(",", "")) == edges > 0
    assert all(float(row[3]) > 0 and float(row[4]) > 0 for row in rows)
    for method in ("srsc", "crsc"):
        assert (tmp_path / f"scale-2000-0.05.{method}.pihat.csv").is_file()
