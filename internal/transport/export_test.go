package transport

// PooledFramesNeverAlias is the frame-level case of the external
// TestPooledReadsNeverAlias.
var PooledFramesNeverAlias = pooledFramesNeverAlias
