"""Reproduce the accuracy tables (single seed; use the CLI for the full run).

Table 1 trains on raw pixels, with and without biases, on the plain and the
symmetrized (+-X) training sets.  Table 2 swaps the raw pixels for each of
the three invariant feature maps.  The full five-seed matrix is:

    symdigits reproduce table1 --out out/t1
    symdigits reproduce table2 --out out/t2

This demo runs one seed so it finishes in about a minute.
"""

from pathlib import Path

from symdigits import TrainConfig, load_bundled_dataset
from symdigits.experiments import format_verdicts, reproduce_tables

out = Path("demo_output/tables")
out.mkdir(parents=True, exist_ok=True)

# the unaugmented corpus: each seed's sets are shifted after the split
report = reproduce_tables(load_bundled_dataset(), seeds=[0], config=TrainConfig())

print("cell accuracies (seed 0):")
for cell in sorted(report.cells):
    table, bias, features, train_set, test_set = cell
    value = report.cells[cell][0]
    print(f"  {table}  {bias:7s} {features:9s} {train_set:10s} {test_set:8s} {value:.3f}")

print()
print("band verdicts (bands assume the five-seed mean; one seed is noisier):")
print(format_verdicts(report.verdicts), end="")

report.write_csv(out / "results.csv")
print(f"\nper-cell CSV written to {out / 'results.csv'}")
print("note the invariant-feature rows: accuracy on X_test and -X_test is")
print("identical to the last bit, and the no-bias identity rows respect")
print("R + Rbar <= 1 exactly.")
