package p

// Double exports double to the external test package only.
var Double = double
