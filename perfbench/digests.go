package main

// referenceDigests are the SHA-256 digests of each workload's labels
// file with its lines put back in generation order. The dataset's
// content does not depend on --seed (only its row order does) and
// MrCC's output does not depend on row order, so every run at every
// seed must reproduce them; a change that alters any label fails the
// run's output check.
var referenceDigests = map[string]string{
	"cli-15d":     "2ddb3af98ca247a924d75ff22dad52331e6b9285bc96727c9d68488b20c07b45",
	"cli-6d-tall": "e85dd52555bdcb56160e853f4321182008ca27beaa5da8e3230724f96ca30d31",
}
