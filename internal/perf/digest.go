package perf

// seed1Digests pins each workload's input digest at seed 1. A run at seed
// 1 whose inputs hash differently fails its check: something outside the
// benchmark (the serve generator, the random stream, a configuration
// default folded into the inputs) changed what the workload runs.
var seed1Digests = map[string]string{
	"ring":    "d862c82db038aa89",
	"alloc":   "3d792b2520fb1beb",
	"serve":   "633ec1d6b30e0aea",
	"recover": "c5b992f06de914a0",
}
