package eva

// SetMaxDenseStates sets the dense-table state limit until the returned
// restore function runs.
func SetMaxDenseStates(n int) (restore func()) {
	old := maxDenseStates
	maxDenseStates = n
	return func() { maxDenseStates = old }
}

// CompileMinted is Compile that also reports how many subset states the
// construction minted, whether or not it succeeded.
func CompileMinted(a *EVA) (minted int, err error) {
	sub := newSubsets(a)
	_, err = compile(sub)
	return sub.count(), err
}
