"""Synthesize the per-iteration doublet spectra and read the phases back.

Each iteration's measured phase becomes the common phase of a two-line
doublet at +-J/2; the reference trace (phase 0) defines absorption. The
complex line integral against the reference recovers the phase to well
under a tenth of a degree. CSV traces land in demo_output/.
"""
from pathlib import Path

from molphase import ipea, molham, probe

out = Path("demo_output")
out.mkdir(exist_ok=True)

h2 = molham.build_h2()
tau = molham.choose_tau(h2)
records, _, _ = ipea.run_ipea(
    h2,
    ipea.IterationConfig(tau=tau),
    noise=probe.NoiseModel(phase_jitter_bound=5 / 360, rng_seed=3),
)

reference = probe.synthesize_spectrum(0.0)
(out / "spectrum_reference.csv").write_text(probe.spectrum_csv(reference))
print(f"reference trace (phase 0): {out / 'spectrum_reference.csv'}")

for rec in records:
    trace = probe.synthesize_spectrum(rec.measured_phase)
    path = out / f"spectrum_k{rec.k}.csv"
    path.write_text(probe.spectrum_csv(trace))
    recovered = probe.extract_phase_from_spectrum(trace, reference)
    print(f"k={rec.k}: wrote {path.name}; phase in {rec.measured_phase:.6f}, "
          f"out {recovered:.6f}, |delta| = {ipea.phase_distance(recovered, rec.measured_phase):.2e}")
