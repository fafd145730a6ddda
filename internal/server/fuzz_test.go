package server

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	tdx "repro"
)

// FuzzRequestParams feeds raw query strings, parsed the way net/http
// parses them, through every per-request parameter tdxd reads:
// runOptions (?norm=, ?egd=, ?coalesce=), runBudget (?timeout=), ?at=,
// ?solution= and ?query= (ValidateQuery on the employment exchange).
// Nothing may panic, and each parameter either fails with the error the
// handler answers 400 with or yields a usable value.
func FuzzRequestParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"timeout=5s&norm=naive&egd=stepwise&coalesce=true",
		"timeout=-5s", "timeout=1000h", "timeout=0", "timeout=abc",
		"norm=bogus", "egd=", "coalesce=maybe",
		"at=2013", "at=inf", "at=-1", "at=99999999999999999999",
		"solution=true", "solution=maybe",
		"query=q", "query=query+all(n,+c)+:-+Emp(n,+c,+s)", "query=nope", "query=q(x)+:-",
		"parallel=many", "%zz&norm=naive", "a=1;b=2", "norm=smart&norm=naive",
	} {
		f.Add(seed)
	}
	s := mustNew(f, Config{})
	ex, err := tdx.Compile(readTestdata(f, "employment.tdx"))
	if err != nil {
		f.Fatal(err)
	}
	src, err := ex.ParseSource(readTestdata(f, "employment.facts"))
	if err != nil {
		f.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		// Like Request.URL.Query, the handlers keep whatever pairs parse.
		q, _ := url.ParseQuery(raw)
		r := &http.Request{URL: &url.URL{RawQuery: q.Encode()}}
		badParamOf := func(err error, names ...string) bool {
			for _, name := range names {
				if strings.HasPrefix(err.Error(), "query parameter "+name+": ") {
					return true
				}
			}
			return false
		}

		if opts, err := s.runOptions(r); err != nil {
			if !badParamOf(err, "norm", "egd", "coalesce") {
				t.Fatalf("runOptions(%q): error %q names no parameter", raw, err)
			}
		} else if fp := tdx.OptionsFingerprint(opts...); !strings.HasPrefix(fp, "norm=") {
			t.Fatalf("runOptions(%q): options fingerprint %q", raw, fp)
		}

		if d, err := s.runBudget(r); err != nil {
			if !badParamOf(err, "timeout") {
				t.Fatalf("runBudget(%q): error %q names no parameter", raw, err)
			}
		} else if d <= 0 || d > s.cfg.MaxTimeout {
			t.Fatalf("runBudget(%q) = %v, outside (0, %v]", raw, d, s.cfg.MaxTimeout)
		}

		// handleSnapshot parses ?at= with tdx.ParseTime and
		// handleSessionFacts parses ?solution= with strconv.ParseBool.
		if v := q.Get("at"); v != "" {
			if at, err := tdx.ParseTime(v); err == nil {
				if back, err := tdx.ParseTime(at.String()); err != nil || back != at {
					t.Fatalf("?at=%q parsed to %v, which parses back to %v, %v", v, at, back, err)
				}
			}
		}
		if v := q.Get("solution"); v != "" {
			if _, err := strconv.ParseBool(v); err != nil && !errors.Is(err, strconv.ErrSyntax) {
				t.Fatalf("?solution=%q: %v", v, err)
			}
		}

		// A query ValidateQuery accepts must evaluate.
		if v := q.Get("query"); ex.ValidateQuery(v) == nil {
			if _, err := ex.Query(context.Background(), sol, v); err != nil {
				t.Fatalf("?query=%q validated but failed: %v", v, err)
			}
		}
	})
}
