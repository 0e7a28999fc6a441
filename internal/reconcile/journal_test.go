package reconcile

import (
	"encoding/json"
	"testing"
)

// TestJournalKeepsNewest appends one revision past the bound: the oldest
// is dropped, and Seq keeps counting so the window's start shows.
func TestJournalKeepsNewest(t *testing.T) {
	var j Journal
	for i := 0; i < 4097; i++ {
		j.Append(Revision{Fleet: "f"})
	}
	revs := j.List()
	if n := len(revs); n != 4096 {
		t.Fatalf("List = %d revisions, want 4096", n)
	}
	if first, last := revs[0].Seq, revs[len(revs)-1].Seq; first != 2 || last != 4097 {
		t.Fatalf("retained Seq %d..%d, want 2..4097", first, last)
	}
	if n := len(j.ByFleet("f")); n != 4096 {
		t.Fatalf("ByFleet = %d revisions, want 4096", n)
	}
}

// TestJournalEmptyListsAreArrays: an empty journal, or a fleet with no
// revisions, lists as the JSON array [], not null.
func TestJournalEmptyListsAreArrays(t *testing.T) {
	var j Journal
	j.Append(Revision{Fleet: "f"})
	for name, revs := range map[string][]Revision{
		"List":        new(Journal).List(),
		"ByFleet":     j.ByFleet("nope"),
		"ByFleet new": new(Journal).ByFleet("f"),
	} {
		b, err := json.Marshal(revs)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != "[]" {
			t.Fatalf("%s encodes as %s, want []", name, b)
		}
	}
}
