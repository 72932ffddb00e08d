package main

// digests pins the simulated results of the default seed: the SHA-256
// of every unit's result line, scenario by scenario, as the runner and
// the daemon render them. A change that only speeds up the simulator
// must leave them untouched.
var digests = map[string]string{
	"des-sweep":      "d76369b7503cbdd22eb1e7a29335d2d21d0799c384ca02fddeecc8e805d6256e",
	"hybrid-sweep":   "1aed1076ca0b69c5dde547e57e53f7869cb88bd0c4d19b823507236c93aca0db",
	"observed-sweep": "f89df7076f6ae24848df24dee46a0743cde6814ade028943e4fe21643cc14a8a",
	"serve-mixed":    "23e7bdce3db43edb124f59b663f66cbac8261e643ecb0fe21d24912eac0162dd",
}
