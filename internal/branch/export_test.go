package branch

// Holds exposes the positional search's predicate to the external tests.
var Holds = holds
