"""Walk closure chains: where a group sits between itself and the symmetric group.

The k-closure of an action is the largest group with the same orbits on
k-tuples. As k grows the closures shrink, and the first k where the chain
reaches the group itself is a measure of how much of the group's structure
is visible in its k-point statistics.
"""

from closurelab import catalog_group, closure_spectrum, k_trans, ksubsets_action

print("== A dihedral group is pinned down by pairs ==")
report = closure_spectrum(catalog_group("D4"))
for entry in report.entries:
    print(f"  k={entry.k}: closure order {entry.order}")
print(f"  first k with closure = group: {report.minimal_k}")
print()

print("== The alternating group A5 resists until k = 4 ==")
report = closure_spectrum(catalog_group("A5"))
for entry in report.entries:
    print(f"  k={entry.k}: closure order {entry.order}")
print(f"  first k with closure = group: {report.minimal_k}")
print("  (A5 is 3-transitive, so below k=4 the closure is all of S5)")
print()

print("== Closures can be strictly bigger than the starting group ==")
pairs = ksubsets_action(catalog_group("S4").group, 2)
report = closure_spectrum(pairs)
print(f"  S4 acting on the 6 unordered pairs, order {pairs.group.order()}:")
for entry in report.entries:
    print(f"  k={entry.k}: closure order {entry.order}")
print("  at k=2 the closure has order 48: the action embeds S4 in a larger")
print("  group with the same pair statistics (the full pair-graph symmetry)")
print()

print("== The closure number over every faithful transitive action ==")
value, cert = k_trans(catalog_group("A5").group, degree_bound=12)
print(f"  A5: largest minimal closure index = {value} (certified: {cert.certified})")
for entry in cert.entries:
    print(f"    degree {entry.degree:3d}: {entry.kind} {entry.value} ({entry.source})")
print("  the natural degree-5 action is the hardest one to close; the wide")
print("  actions take their bounds from the bases of overgroups' actions")
