package espresso

// The reference implementations, for the differential tests of the external
// test package.
var (
	MinimizeRef = minimizeRef
	ISOPRef     = isopRef
)
