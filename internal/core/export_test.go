package core

// MaxBatch exposes the batch bound to the external tests.
const MaxBatch = maxBatch
