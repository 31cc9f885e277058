package run

import "repro/internal/crypto"

// DealtSuites returns the suites Run(spec) hands the nodes of its first
// consensus group: the shared crypto.DealCached objects themselves, so an
// external test can reach the memos a run will read.
func DealtSuites(spec Spec) ([]*crypto.Suite, error) {
	d, err := newDeployment(spec.normalize())
	if err != nil {
		return nil, err
	}
	suites := make([]*crypto.Suite, len(d.locals[0].nodes))
	for i, n := range d.locals[0].nodes {
		suites[i] = n.Suite
	}
	return suites, nil
}
