package memctrl

import (
	"reflect"
	"testing"
)

// TestDecisionEmptyChecksEveryField sets each field of Decision on its own
// and requires Empty to notice it, so a field added to Decision cannot be
// missed by the check that decides whether a run replays its baseline.
func TestDecisionEmptyChecksEveryField(t *testing.T) {
	if !(Decision{}).Empty() {
		t.Fatal("zero Decision is not Empty")
	}
	typ := reflect.TypeOf(Decision{})
	for i := 0; i < typ.NumField(); i++ {
		var d Decision
		f := reflect.ValueOf(&d).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("Decision.%s has kind %s: teach this test (and Empty) about it",
				typ.Field(i).Name, f.Kind())
		}
		if d.Empty() {
			t.Errorf("Decision with only %s set reports Empty", typ.Field(i).Name)
		}
	}
}
