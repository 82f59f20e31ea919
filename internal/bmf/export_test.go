package bmf

// The per-degree reference implementations and their comparison, for the
// differential tests of the external test package.
var (
	FactorizeRef        = factorizeRef
	FactorizeColumnsRef = factorizeColumnsRef
	DiffResult          = diffResult
)
