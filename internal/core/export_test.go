package core

// CheckSupportBits lets the external test package, whose tests may
// import packages that themselves import core (statcheck), hold
// supportBits to its oracles.
var CheckSupportBits = checkSupportBits
