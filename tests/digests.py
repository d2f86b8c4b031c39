"""Print one digest per end-to-end output, the table a "same results" claim quotes.

    python tests/digests.py

Runs ``quncert.cli.main(argv)`` of this checkout's ``src`` in this process,
into a temporary directory, and prints ``name  sha256[:16]`` for the seed-42
and seed-1 preset reports, the ``verify all`` reports of the three committed
scenario files, the 13 figure CSVs concatenated in name order, and
``evolve`` on the dim-6 file.  The digests depend on the BLAS numpy links, so
they compare two commits on one machine; no test compares them to a kept value.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
REPORTS = {
    "verify-seed42": ["--seed", "42"],
    "verify-seed1": ["--seed", "1"],
    "verify-dim6": ["--scenario", str(DATA / "scenario_dim6.json")],
    "verify-qubit-found": ["--scenario", str(DATA / "scenario_qubit_found.json")],
    "verify-offset-cancels": ["--scenario", str(DATA / "scenario_offset_cancels.json")],
}


def digests() -> dict[str, str]:
    from quncert import cli

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp)
        for name, source in REPORTS.items():
            cli.main(["verify", "all", *source, "--report", str(out / name)])
            outputs[name] = (out / name).read_bytes()
        for figure in ("fig1", "fig2", "fig3"):
            cli.main(["figure", figure, "-d", str(out / "figures")])
        csvs = sorted((out / "figures").iterdir(), key=lambda p: p.name)
        outputs["figures"] = b"".join(p.read_bytes() for p in csvs)
        cli.main(["evolve", str(DATA / "scenario_dim6.json"), "-o", str(out / "evolve")])
        outputs["evolve-dim6"] = (out / "evolve").read_bytes()
    return {name: hashlib.sha256(data).hexdigest()[:16] for name, data in outputs.items()}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    for name, digest in digests().items():
        print(f"{name}  {digest}")
