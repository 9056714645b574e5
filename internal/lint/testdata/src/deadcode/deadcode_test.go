package main

import "testing"

// seed's initializer runs only in the test binary.
var seed = onlyTestInit()

func TestOnlyTests(t *testing.T) {
	if onlyTests()+seed != 9 {
		t.Fatal("fixture arithmetic")
	}
}
