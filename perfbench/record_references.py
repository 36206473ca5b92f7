"""Record the reference values that the workload checks compare against.

Run from the repository root:

    python3 perfbench/record_references.py

It writes ``perfbench/references.json``: the default welfare,
best-response and fda-audit tables as the CLI writes them, and the DP root
values of every (cap, effect) pair that the multiround workloads solve.
References are recorded once, from a commit whose outputs are trusted, and
checked with tolerances (1e-10 relative for closed forms, 1e-8 for DP
roots), so a later change that only moves the last digits still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from evcontracts import cli  # noqa: E402
from evcontracts import multiround as mr  # noqa: E402
from workloads import read_csv  # noqa: E402

HORIZON, COST = 5, 0.1


def dp_roots(caps, thetas, levels) -> dict[str, float]:
    return {
        f"{cap:g}:{theta:g}": mr.backward_induction(
            HORIZON, COST, theta, mr.LicenseGrid.from_cap(cap, levels)
        ).root_value
        for cap in caps
        for theta in thetas
    }


def cli_table(command: str, out: Path, name: str) -> list[dict[str, str]]:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([command, "--out", str(out)]) != 0:
            raise SystemExit(f"{command} failed")
    return read_csv(out / name)


def main() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        out = Path(tmp)
        welfare = {
            panel: [
                [float(r["pi0"]), float(r["utility_aligned"]), float(r["utility_status_quo"])]
                for r in cli_table("welfare", out, f"welfare_panel_{panel}.csv")
            ]
            for panel in ("a", "b")
        }
        best = [
            [float(r[c]) for c in ("cost_ratio", "theta1", "threshold", "power", "expected_profit")]
            for r in cli_table("best-response", out, "best_response.csv")
        ]
        fda = [
            [r["protocol"], float(r["p_null_approval"]), int(r["profit"]), int(r["cost"]),
             int(r["expected_value"]), r["verdict"]]
            for r in cli_table("fda-audit", out, "fda_audit.csv")
        ]
    refs = {
        "paper-defaults": {
            "welfare": welfare,
            "best_response": best,
            "fda_audit": fda,
            "dp_roots": dp_roots((1.0, 5.0), (0.5, 1.0, 1.645, 2.5), 100),
        },
        "dp-fine-grid": {"dp_roots": dp_roots((5.0,), (1.0,), 400)},
    }
    path = BENCH_DIR / "references.json"
    # One table row per line.
    text = re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
        json.dumps(refs, indent=1),
    )
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
