"""
Auditing published worked-example tables
========================================

"""

# Worked examples in the literature print explicit coefficient tables for
# the Laguerre and Miller-Lee pairs.  This audit evaluates each printed
# identity literally -- printed numbers against engine-generated
# polynomials -- and reports PASS or FAIL per degree.  The engine-derived
# coefficient vectors ride along for comparison, so a FAIL pinpoints
# exactly which printed entries drift from the series that define them.
from sheffermat import run_worked_example_audit

report = run_worked_example_audit(6)

# --- status summary ------------------------------------------------------------
print(f"{len(report)} rows, {len(report.identities)} identities, degrees 0..6")
print()
for identity in report.identities:
    statuses = report.statuses(identity)
    print(f"{identity:<38} {' '.join(statuses)}")
print()

# --- drilling into one disagreement --------------------------------------------
# The Laguerre derivative recurrence fails at every degree.  Compare the
# printed c vector with the derived one: the printed column keeps a fixed
# sign pattern where the derived expansion alternates and terminates.  Both
# tables are CoeffTriples, so `entry.printed == entry.derived` compares them.
entry = next(
    e
    for e in report
    if e.identity == "laguerre-derivative-recurrence" and e.n == 3
)
print("laguerre-derivative-recurrence at n = 3:")
for name, derived in (("a", entry.derived.a), ("b", entry.derived.b), ("c", entry.derived.c)):
    printed = [str(v) for v in getattr(entry.printed, name)]
    print(f"  printed {name}: {printed}   derived {name}: {[str(v) for v in derived]}")
print("  residual:", entry.residual)
print()

# --- machine-readable form -------------------------------------------------------
# report.to_json() round-trips through the documented schema; this is the
# payload behind `sheffermat audit --n 6`.
row = report.to_json()[0]
print("first JSON row keys:", sorted(row))
print("first row:", row["identity-id"], row["status"], "residual =", row["residual"] or 0)
