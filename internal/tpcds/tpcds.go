// Package tpcds generates a synthetic TPC-DS-like store_sales table, the
// scalability workload of Section 7.4 of the paper. The official TPC-DS
// generator is unavailable offline, so this package produces a 23-attribute
// sales fact table (customer demographics, store, item, date dimensions
// denormalized, plus a net_profit measure) whose aggregate query output
// sizes match the paper's setting (N ≈ 47,361 groups for the reported
// configuration).
package tpcds

import (
	"fmt"
	"math"
	"math/rand"

	"qagview/internal/relation"
)

// Config sizes the synthetic table.
type Config struct {
	Rows int
	Seed int64
}

// DefaultConfig generates 500,000 fact rows; the paper's store_sales has
// 2,880,404, but the summarization experiments depend only on the aggregate
// output size N, which the queries below control.
func DefaultConfig() Config { return Config{Rows: 500_000, Seed: 7} }

// GroupingAttrs lists grouping attributes in the order used when varying m.
var GroupingAttrs = []string{
	"cd_gender", "cd_marital_status", "cd_education", "i_category",
	"cd_credit_rating", "s_state", "d_quarter", "d_year",
	"i_class", "d_weekday",
}

var (
	genders        = []string{"M", "F"}
	maritalStatus  = []string{"S", "M", "D", "W", "U"}
	educations     = []string{"primary", "secondary", "college", "2yrdegree", "4yrdegree", "advanced", "unknown"}
	creditRatings  = []string{"low", "good", "highrisk", "unknown"}
	states         = []string{"TN", "GA", "SC", "NC", "AL", "KY", "VA", "FL", "TX", "OH"}
	categories     = []string{"books", "electronics", "home", "jewelry", "men", "music", "shoes", "sports", "toys", "women"}
	classes        = []string{"c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08"}
	brands         = []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10"}
	colors         = []string{"red", "blue", "green", "black", "white", "yellow"}
	sizes          = []string{"small", "medium", "large", "xl"}
	weekdaysVocab  = []string{"mon", "tue", "wed", "thu", "fri", "sat", "sun"}
	quartersVocab  = []string{"Q1", "Q2", "Q3", "Q4"}
	promosVocab    = []string{"none", "tv", "radio", "web", "mail"}
	countiesVocab  = []string{"county1", "county2", "county3", "county4", "county5"}
	shiftsVocab    = []string{"morning", "afternoon", "evening"}
	channelsVocab  = []string{"store", "kiosk"}
	depCountVocab  = []int64{0, 1, 2, 3, 4}
	storeIDsDomain = 12
)

// draws holds the per-row attribute draws shared by the flat generator and
// the star-schema generator, in one fixed rng consumption order — both
// shapes are assembled from the same stream, so the denormalized flat table
// is byte-identical to the star's join.
type draws struct {
	gender, marital, education, credit []string
	category, class, state, quarter    []string
	year, quantity, storeID, depCount  []int64
	listPrice, salesPrice, profit      []float64
	brand, color, size, county         []string
	weekday, shift, promo, channel     []string
}

func drawRows(cfg Config) (*draws, error) {
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("tpcds: non-positive row count %d", cfg.Rows)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows
	d := &draws{
		gender: make([]string, n), marital: make([]string, n),
		education: make([]string, n), credit: make([]string, n),
		category: make([]string, n), class: make([]string, n),
		state: make([]string, n), quarter: make([]string, n),
		year: make([]int64, n), quantity: make([]int64, n),
		storeID: make([]int64, n), depCount: make([]int64, n),
		listPrice: make([]float64, n), salesPrice: make([]float64, n),
		profit: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		g := genders[rng.Intn(2)]
		ms := maritalStatus[rng.Intn(len(maritalStatus))]
		ed := educations[rng.Intn(len(educations))]
		cr := creditRatings[rng.Intn(len(creditRatings))]
		cat := categories[rng.Intn(len(categories))]
		cl := classes[rng.Intn(len(classes))]
		st := states[rng.Intn(len(states))]
		q := quartersVocab[rng.Intn(4)]
		year := 1998 + int64(rng.Intn(6))
		qty := int64(1 + rng.Intn(10))
		lp := 5 + rng.Float64()*95
		sp := lp * (0.5 + rng.Float64()*0.5)

		// Planted structure: electronics and jewelry bought by advanced-
		// degree, good-credit customers in Q4 are high-profit; books in Q1
		// for low-credit are loss leaders.
		p := (sp - lp*0.7) * float64(qty)
		if (cat == "electronics" || cat == "jewelry") && ed == "advanced" && cr == "good" {
			p += 40
		}
		if cat == "jewelry" && q == "Q4" {
			p += 25
		}
		if cat == "books" && cr == "low" {
			p -= 30
		}
		if st == "TN" || st == "GA" {
			p += 5
		}
		p += rng.NormFloat64() * 20
		p = math.Round(p*100) / 100

		d.gender[i], d.marital[i], d.education[i], d.credit[i] = g, ms, ed, cr
		d.category[i], d.class[i], d.state[i], d.quarter[i] = cat, cl, st, q
		d.year[i], d.quantity[i], d.listPrice[i], d.salesPrice[i], d.profit[i] = year, qty, lp, sp, p
	}
	d.storeID = make([]int64, n)
	for i := range d.storeID {
		d.storeID[i] = int64(1 + rng.Intn(storeIDsDomain))
	}
	d.depCount = make([]int64, n)
	for i := range d.depCount {
		d.depCount[i] = depCountVocab[rng.Intn(len(depCountVocab))]
	}
	pick := func(vocab []string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	// Same consumption order as the historical flat generator's column list.
	d.brand = pick(brands)
	d.color = pick(colors)
	d.size = pick(sizes)
	d.county = pick(countiesVocab)
	d.weekday = pick(weekdaysVocab)
	d.shift = pick(shiftsVocab)
	d.promo = pick(promosVocab)
	d.channel = pick(channelsVocab)
	return d, nil
}

// Generate builds the denormalized store_sales table deterministically from
// cfg (the single wide table the paper's scalability experiments query).
func Generate(cfg Config) (*relation.Relation, error) {
	d, err := drawRows(cfg)
	if err != nil {
		return nil, err
	}
	return relation.FromColumns("store_sales",
		relation.StringCol("cd_gender", d.gender),
		relation.StringCol("cd_marital_status", d.marital),
		relation.StringCol("cd_education", d.education),
		relation.StringCol("cd_credit_rating", d.credit),
		relation.IntCol("cd_dep_count", d.depCount),
		relation.StringCol("i_category", d.category),
		relation.StringCol("i_class", d.class),
		relation.StringCol("i_brand", d.brand),
		relation.StringCol("i_color", d.color),
		relation.StringCol("i_size", d.size),
		relation.IntCol("s_store_id", d.storeID),
		relation.StringCol("s_state", d.state),
		relation.StringCol("s_county", d.county),
		relation.IntCol("d_year", d.year),
		relation.StringCol("d_quarter", d.quarter),
		relation.StringCol("d_weekday", d.weekday),
		relation.StringCol("d_shift", d.shift),
		relation.StringCol("p_promo", d.promo),
		relation.StringCol("s_channel", d.channel),
		relation.IntCol("ss_quantity", d.quantity),
		relation.FloatCol("ss_list_price", d.listPrice),
		relation.FloatCol("ss_sales_price", d.salesPrice),
		relation.FloatCol("net_profit", d.profit),
	)
}

// Star holds the TPC-DS base tables: the fact table with surrogate keys
// into four dimensions. The fact table is named store_sales_fact, not
// store_sales, so one catalog can hold it next to Generate's flat
// store_sales (qagviewd -sample tpcds registers both). Each dimension enumerates the full cross product of
// its attribute vocabularies (as TPC-DS's customer_demographics does), so
// surrogate keys are computed, not sampled, and the star's join is
// byte-identical to the flat table of Generate for the same Config.
type Star struct {
	Fact     *relation.Relation // store_sales_fact: ss_cdemo_sk, ss_item_sk, ss_store_sk, ss_date_sk, p_promo, measures
	Customer *relation.Relation // customer_demographics: cd_demo_sk, cd_*
	Item     *relation.Relation // item: i_item_sk, i_*
	Store    *relation.Relation // store: s_store_sk, s_*
	Date     *relation.Relation // date_dim: d_date_sk, d_*
}

// Tables returns the star's relations for catalog registration.
func (s *Star) Tables() []*relation.Relation {
	return []*relation.Relation{s.Fact, s.Customer, s.Item, s.Store, s.Date}
}

// indexOf returns the position of v in vocab; the generators only draw from
// their vocabularies, so absence is a bug.
func indexOf(vocab []string, v string) int {
	for i, s := range vocab {
		if s == v {
			return i
		}
	}
	panic("tpcds: value " + v + " not in vocabulary")
}

var yearsVocab = []int64{1998, 1999, 2000, 2001, 2002, 2003}

// GenerateStar builds the base tables deterministically from cfg.
func GenerateStar(cfg Config) (*Star, error) {
	d, err := drawRows(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Rows

	// customer_demographics: genders × marital × education × credit × dep.
	nCD := len(genders) * len(maritalStatus) * len(educations) * len(creditRatings) * len(depCountVocab)
	cdSK := make([]int64, nCD)
	cdG := make([]string, nCD)
	cdM := make([]string, nCD)
	cdE := make([]string, nCD)
	cdC := make([]string, nCD)
	cdD := make([]int64, nCD)
	i := 0
	for _, g := range genders {
		for _, ms := range maritalStatus {
			for _, ed := range educations {
				for _, cr := range creditRatings {
					for _, dep := range depCountVocab {
						cdSK[i] = int64(i + 1)
						cdG[i], cdM[i], cdE[i], cdC[i], cdD[i] = g, ms, ed, cr, dep
						i++
					}
				}
			}
		}
	}
	cdRel, err := relation.FromColumns("customer_demographics",
		relation.IntCol("cd_demo_sk", cdSK),
		relation.StringCol("cd_gender", cdG),
		relation.StringCol("cd_marital_status", cdM),
		relation.StringCol("cd_education", cdE),
		relation.StringCol("cd_credit_rating", cdC),
		relation.IntCol("cd_dep_count", cdD),
	)
	if err != nil {
		return nil, err
	}
	cdKey := func(row int) int64 {
		k := indexOf(genders, d.gender[row])
		k = k*len(maritalStatus) + indexOf(maritalStatus, d.marital[row])
		k = k*len(educations) + indexOf(educations, d.education[row])
		k = k*len(creditRatings) + indexOf(creditRatings, d.credit[row])
		k = k*len(depCountVocab) + int(d.depCount[row])
		return int64(k + 1)
	}

	// item: categories × classes × brands × colors × sizes.
	nIt := len(categories) * len(classes) * len(brands) * len(colors) * len(sizes)
	itSK := make([]int64, nIt)
	itCat := make([]string, nIt)
	itCl := make([]string, nIt)
	itBr := make([]string, nIt)
	itCo := make([]string, nIt)
	itSz := make([]string, nIt)
	i = 0
	for _, cat := range categories {
		for _, cl := range classes {
			for _, br := range brands {
				for _, co := range colors {
					for _, sz := range sizes {
						itSK[i] = int64(i + 1)
						itCat[i], itCl[i], itBr[i], itCo[i], itSz[i] = cat, cl, br, co, sz
						i++
					}
				}
			}
		}
	}
	itRel, err := relation.FromColumns("item",
		relation.IntCol("i_item_sk", itSK),
		relation.StringCol("i_category", itCat),
		relation.StringCol("i_class", itCl),
		relation.StringCol("i_brand", itBr),
		relation.StringCol("i_color", itCo),
		relation.StringCol("i_size", itSz),
	)
	if err != nil {
		return nil, err
	}
	itKey := func(row int) int64 {
		k := indexOf(categories, d.category[row])
		k = k*len(classes) + indexOf(classes, d.class[row])
		k = k*len(brands) + indexOf(brands, d.brand[row])
		k = k*len(colors) + indexOf(colors, d.color[row])
		k = k*len(sizes) + indexOf(sizes, d.size[row])
		return int64(k + 1)
	}

	// store: ids × states × counties × channels.
	nSt := storeIDsDomain * len(states) * len(countiesVocab) * len(channelsVocab)
	stSK := make([]int64, nSt)
	stID := make([]int64, nSt)
	stSt := make([]string, nSt)
	stCn := make([]string, nSt)
	stCh := make([]string, nSt)
	i = 0
	for id := 1; id <= storeIDsDomain; id++ {
		for _, st := range states {
			for _, cn := range countiesVocab {
				for _, ch := range channelsVocab {
					stSK[i] = int64(i + 1)
					stID[i] = int64(id)
					stSt[i], stCn[i], stCh[i] = st, cn, ch
					i++
				}
			}
		}
	}
	stRel, err := relation.FromColumns("store",
		relation.IntCol("s_store_sk", stSK),
		relation.IntCol("s_store_id", stID),
		relation.StringCol("s_state", stSt),
		relation.StringCol("s_county", stCn),
		relation.StringCol("s_channel", stCh),
	)
	if err != nil {
		return nil, err
	}
	stKey := func(row int) int64 {
		k := int(d.storeID[row]) - 1
		k = k*len(states) + indexOf(states, d.state[row])
		k = k*len(countiesVocab) + indexOf(countiesVocab, d.county[row])
		k = k*len(channelsVocab) + indexOf(channelsVocab, d.channel[row])
		return int64(k + 1)
	}

	// date_dim: years × quarters × weekdays × shifts.
	nDt := len(yearsVocab) * len(quartersVocab) * len(weekdaysVocab) * len(shiftsVocab)
	dtSK := make([]int64, nDt)
	dtYr := make([]int64, nDt)
	dtQ := make([]string, nDt)
	dtWd := make([]string, nDt)
	dtSh := make([]string, nDt)
	i = 0
	for _, yr := range yearsVocab {
		for _, q := range quartersVocab {
			for _, wd := range weekdaysVocab {
				for _, sh := range shiftsVocab {
					dtSK[i] = int64(i + 1)
					dtYr[i], dtQ[i], dtWd[i], dtSh[i] = yr, q, wd, sh
					i++
				}
			}
		}
	}
	dtRel, err := relation.FromColumns("date_dim",
		relation.IntCol("d_date_sk", dtSK),
		relation.IntCol("d_year", dtYr),
		relation.StringCol("d_quarter", dtQ),
		relation.StringCol("d_weekday", dtWd),
		relation.StringCol("d_shift", dtSh),
	)
	if err != nil {
		return nil, err
	}
	dtKey := func(row int) int64 {
		k := int(d.year[row] - yearsVocab[0])
		k = k*len(quartersVocab) + indexOf(quartersVocab, d.quarter[row])
		k = k*len(weekdaysVocab) + indexOf(weekdaysVocab, d.weekday[row])
		k = k*len(shiftsVocab) + indexOf(shiftsVocab, d.shift[row])
		return int64(k + 1)
	}

	cdFK := make([]int64, n)
	itFK := make([]int64, n)
	stFK := make([]int64, n)
	dtFK := make([]int64, n)
	for r := 0; r < n; r++ {
		cdFK[r] = cdKey(r)
		itFK[r] = itKey(r)
		stFK[r] = stKey(r)
		dtFK[r] = dtKey(r)
	}
	fact, err := relation.FromColumns("store_sales_fact",
		relation.IntCol("ss_cdemo_sk", cdFK),
		relation.IntCol("ss_item_sk", itFK),
		relation.IntCol("ss_store_sk", stFK),
		relation.IntCol("ss_date_sk", dtFK),
		relation.StringCol("p_promo", d.promo),
		relation.IntCol("ss_quantity", d.quantity),
		relation.FloatCol("ss_list_price", d.listPrice),
		relation.FloatCol("ss_sales_price", d.salesPrice),
		relation.FloatCol("net_profit", d.profit),
	)
	if err != nil {
		return nil, err
	}
	return &Star{Fact: fact, Customer: cdRel, Item: itRel, Store: stRel, Date: dtRel}, nil
}

// Query renders the paper's TPC-DS aggregate template (Appendix A.8) over
// the first m grouping attributes:
//
//	SELECT <attrs>, avg(net_profit) AS val FROM store_sales
//	GROUP BY <attrs> HAVING count(*) > minCount ORDER BY val DESC
func Query(m, minCount int) (string, error) {
	return query(m, minCount, "store_sales")
}

// JoinQuery renders the same aggregate template over the star schema,
// joining the fact table store_sales_fact to all four dimensions on their surrogate keys;
// its result is bit-identical to Query over the flat table.
func JoinQuery(m, minCount int) (string, error) {
	return query(m, minCount, "store_sales_fact"+
		" JOIN customer_demographics ON store_sales_fact.ss_cdemo_sk = customer_demographics.cd_demo_sk"+
		" JOIN item ON store_sales_fact.ss_item_sk = item.i_item_sk"+
		" JOIN store ON store_sales_fact.ss_store_sk = store.s_store_sk"+
		" JOIN date_dim ON store_sales_fact.ss_date_sk = date_dim.d_date_sk")
}

func query(m, minCount int, from string) (string, error) {
	if m < 1 || m > len(GroupingAttrs) {
		return "", fmt.Errorf("tpcds: m = %d out of range [1, %d]", m, len(GroupingAttrs))
	}
	attrs := ""
	for i := 0; i < m; i++ {
		if i > 0 {
			attrs += ", "
		}
		attrs += GroupingAttrs[i]
	}
	q := "SELECT " + attrs + ", avg(net_profit) AS val FROM " + from + " GROUP BY " + attrs
	if minCount > 0 {
		q += fmt.Sprintf(" HAVING count(*) > %d", minCount)
	}
	q += " ORDER BY val DESC"
	return q, nil
}
