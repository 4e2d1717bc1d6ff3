"""Steadiness check: two interleaved sets of runs of each workload.

    python3 perfbench/steady.py [--runs 10]

Set A runs every workload ``--runs`` times with seeds 1..runs, set B with
seeds runs+1..2*runs, alternating A and B run by run, using the command
and run length of ``BENCHMARK.json``.  For every end-to-end metric it
prints each set's median, quartiles and spread (quartile distance over the
median), and whether the sets agree within the metric's bound: each spread
within the bound (``setup_s`` exempt, see below), the two medians apart by
no more than the bound (in either direction: both sets run the same code),
and the same share of failed ops.

``setup_s`` is held to its bound on the median only.  It is made of
process boots and imports, which follow the host's load rather than the
program: over one ten-minute steadiness run on a 2-vCPU VM, ``fleet-hot``
set-up grew from 4.2 s to 5.9 s in both sets alike, so its quartile spread
says more about the host than about the code.  The bound on its median is
what catches work moved into set-up.  Exits
non-zero when any of them disagree.  The raw results go to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    result = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results: dict[str, dict[str, list[dict]]] = {}
    for workload in names:
        sets = results[workload] = {"A": [], "B": []}
        for index in range(1, args.runs + 1):
            for label, seed in (("A", index), ("B", args.runs + index)):
                row = _run(bench["command"], workload, seed,
                           bench["run_seconds"])
                if not row["correct"]:
                    print(f"{workload} seed {seed}: incorrect output")
                    return 1
                sets[label].append(row)
                print(f"{workload} set {label} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in row["metrics"].items()),
                      flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w",
              encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    agree = True
    for workload, sets in results.items():
        print(f"\n== {workload} ({args.runs} runs per set)")
        shares = {label: {row["failed"] / row["attempted"] for row in rows}
                  for label, rows in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        agree &= same_share
        print(f"failed share: A {sorted(shares['A'])} B {sorted(shares['B'])}"
              f" -> {'same' if same_share else 'DIFFERENT'}")
        print(f"{'metric':16s} {'set':3s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = {label: _summary([row["metrics"][name]["value"]
                                     for row in sets[label]])
                    for label in "AB"}
            ratio = rows["B"][0] / rows["A"][0]
            ok = abs(ratio - 1) <= bound and all(
                name == "setup_s" or rows[label][3] <= bound
                for label in "AB")
            agree &= ok
            for label in "AB":
                median, q1, q3, spread = rows[label]
                verdict = ""
                if label == "B":
                    verdict = (f"{'agree' if ok else 'DISAGREE'} "
                               f"(B/A median {ratio:.3f})")
                print(f"{name:16s} {label:3s} {median:11.4g} {q1:11.4g} "
                      f"{q3:11.4g} {spread:7.3f} {bound:6.2f}  {verdict}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
