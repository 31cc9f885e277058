package protocol

import "fmt"

// AgreementCheck verifies that all honest nodes that decided the epoch
// produced identical outputs.
func AgreementCheck(nodes []Instance) error {
	var ref [][]byte
	for _, inst := range nodes {
		if inst == nil || inst.Outputs() == nil {
			continue
		}
		if ref == nil {
			ref = inst.Outputs()
			continue
		}
		out := inst.Outputs()
		if len(out) != len(ref) {
			return fmt.Errorf("protocol: output length mismatch: %d vs %d", len(out), len(ref))
		}
		for i := range ref {
			if string(ref[i]) != string(out[i]) {
				return fmt.Errorf("protocol: output disagreement at slot %d", i)
			}
		}
	}
	return nil
}
