package sim

// AlwaysSched exposes the Included-only scheduler shim to the external test
// package.
type AlwaysSched = alwaysSched
