package main

import (
	"fmt"
	"testing"
)

// seed's initializer runs only in the test binary.
var seed = onlyTestInit()

func TestOnlyTests(t *testing.T) {
	if onlyTests()+seed != 9 {
		t.Fatal("fixture arithmetic")
	}
}

func Example_onlyExample() {
	fmt.Println(onlyExample())
	// Output: 6
}

func Examplesonly() {
	fmt.Println(onlyExamples())
}
