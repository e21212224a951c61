#!/usr/bin/env python3
"""Build a scrambled pair along the primes and print its certificate.

Shows the anatomy of the construction: the checkpoint schedule, the
coordinate blocks, the certified per-phase bounds, and the measured
averages next to them.
"""

from seqchaos import FullShift, SequenceSpec, build_scrambled_family, verify_scrambled

seq = SequenceSpec("Primes")
points, cert = build_scrambled_family(seq, tuple_size=2, growth=10, phase_pairs=2, window=48)

print(f"sequence: {cert.sequence}")
print(f"checkpoints N_t: {cert.checkpoint_indices}")
print(f"a at checkpoints: {cert.sequence_at_checkpoints}")
print(f"coordinate boundaries M_t: {cert.coordinate_boundaries}")
print(f"coalescence bounds B_j: {[str(b) for b in cert.coalescence_bounds]}")
print(f"separation bounds C_j: {[str(b) for b in cert.separation_bounds]}")
print(f"claimed limsup-proxy floor c*: {cert.c_star} = {float(cert.c_star)}")
print()

verification = verify_scrambled(points, cert, FullShift.uniform(2, window=48), seq)
for check in verification.checks:
    flag = "ok " if check.passed else "BAD"
    print(f"  [{flag}] {check.name}: claimed {check.claimed}, measured {check.measured:.6g}")
print()
report = verification.report
print(f"liminf proxy (min max-average): {report.liminf_proxy:.6g}")
print(f"limsup proxy (max min-average): {report.limsup_proxy:.6g}")
print(f"verification passed: {verification.passed}")
raise SystemExit(0 if verification.passed else 1)
