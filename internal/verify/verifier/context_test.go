package verifier

import (
	"context"
	"errors"
	"testing"
)

func TestVerifyContextCancelled(t *testing.T) {
	f := build(t, 1)
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := v.VerifyContext(ctx, rule(), f.study, f.changeAt, f.control)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestVerifyContextBackgroundMatchesVerify(t *testing.T) {
	f := build(t, 1)
	v := &Verifier{Registry: f.reg, Data: f.ds, Inv: f.inv}
	want, err := v.VerifyContext(context.Background(), rule(), f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.VerifyContext(context.Background(), rule(), f.study, f.changeAt, f.control)
	if err != nil {
		t.Fatal(err)
	}
	if got.Go != want.Go || len(got.Results) != len(want.Results) {
		t.Fatalf("VerifyContext = %+v, Verify = %+v", got, want)
	}
}
