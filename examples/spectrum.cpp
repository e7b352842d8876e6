// Spectral analysis: find the tones hidden in a noisy synthetic signal.
// Exercises the signal builder (util/signal.hpp), the window functions
// and power spectrum of the harness util (util/window.hpp) — the classic
// signal-processing workload the paper's introduction motivates.

#include <cmath>
#include <iostream>
#include <vector>

#include "fft/plan.hpp"
#include "util/signal.hpp"
#include "util/window.hpp"

int main() {
  // Synthesize 8192 samples at a nominal 8192 Hz: tones at 440 Hz (A4,
  // strong), 1320.5 Hz (off-bin, weaker) and 3000 Hz (faint), plus a weak
  // up-chirp and noise.
  const std::size_t n = 8192;
  const double fs = 8192.0;
  c64fft::util::SignalBuilder sig(n, fs);
  sig.tone({440.0, 1.0, 0.0})
      .tone({1320.5, 0.4, 0.7})
      .tone({3000.0, 0.1, 0.0})
      .noise(0.05, 2026);

  c64fft::fft::HostFftOptions opts;
  opts.workers = 4;

  // A Hann window keeps the off-bin 1320.5 Hz tone from leaking across
  // the spectrum; divide by the coherent gain to recover amplitudes.
  auto windowed = sig.real();
  c64fft::util::apply_window(c64fft::util::WindowKind::kHann, windowed);
  const auto spectrum = c64fft::util::power_spectrum(windowed, opts);
  const double gain =
      c64fft::util::coherent_gain(c64fft::util::WindowKind::kHann, n);

  double strongest = 0.0;
  for (double p : spectrum) strongest = std::max(strongest, p);
  std::cout << "detected tones (bin resolution " << fs / static_cast<double>(n)
            << " Hz, Hann window, coherent gain " << gain << "):\n";
  for (std::size_t k = 1; k + 1 < spectrum.size(); ++k) {
    if (spectrum[k] > spectrum[k - 1] && spectrum[k] >= spectrum[k + 1] &&
        spectrum[k] > 0.004 * strongest) {
      const double amplitude =
          2.0 * std::sqrt(spectrum[k] / static_cast<double>(n)) / gain;
      std::cout << "  " << static_cast<double>(k) * fs / static_cast<double>(n)
                << " Hz  (amplitude ~" << amplitude << ")\n";
    }
  }
  return 0;
}
