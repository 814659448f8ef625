package bench

import (
	"encoding/json"
	"os"
)

// WriteBaseline renders a baseline schema (a ScalebenchResult for
// BENCH_simnet.json, a SpectralBenchResult for BENCH_spectral.json) to
// its committed file.
func WriteBaseline(path string, res any) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
