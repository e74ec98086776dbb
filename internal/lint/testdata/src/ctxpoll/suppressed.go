package ctxpoll

// Negative fixture: a justified directive silences the polling rule for a
// provably short sweep. No diagnostics in this file.

func suppressedSweep(parts [4]int) {
	//lint:graphmat ctxpoll bounded to 4 partitions, sub-millisecond sweep
	for _, p := range parts {
		walkPull(p)
	}
}
