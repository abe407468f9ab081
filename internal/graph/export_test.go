package graph

// RefWalk exposes refWalk to the package's external tests.
var RefWalk = refWalk
