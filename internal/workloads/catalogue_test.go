package workloads

import (
	"sync"
	"testing"

	"tqsim/internal/gate"
)

// suiteGolden pins every suite circuit's name and structural digest, in
// suite order, as the builder produced them before the catalogue existed.
// A change here changes what every stored result and cached plan keyed on
// a suite circuit refers to.
var suiteGolden = [][2]string{
	{"adder_n4_0", "04c74b8290029ed550370b92cb7af930d1d0c4a6191226110c1cd7b86cf67422"},
	{"adder_n4_1", "14a971aa72d51ec6915277957e7bae782b85f31f41f9e897f3a4a17ebbae09a6"},
	{"adder_n4_2", "241578c7d519a94444aa118fb51bc377fb276ab4aa1e2f7938b288093f6237af"},
	{"adder_n10_0", "d9195e635e6ee59221848c6cb19b909963d73248aed2be70eadf54ab961fb31e"},
	{"adder_n10_1", "42b793c6837cb0e0cc2514083c5fa7129aecd6bbc08136f5fee9483bb93d9130"},
	{"adder_n10_2", "d4582be97f44869d9d27e853cf9b05756f9ff68b64c710700b78a3ca1fae844d"},
	{"bv_n6", "2460cd3f3effa1a7b87fe1dcab16504d7a70019e08cac068cd539acdce3e9e40"},
	{"bv_n8", "f7c233f6b916bce9f109aa87a422b19e591e7f5a3cb57292bdcc120d6de46dbd"},
	{"bv_n10", "172b2159e67b0805a57148e4c81fbb336c3667118bdaf1ef029f8b5dc6d15f66"},
	{"bv_n12", "6d0232ad8533d3ad220dd15c365f77ce34d1d1907c1b9d6dd948ed5459965bc7"},
	{"bv_n14", "4b8e5c2f99c2f2614d89fdee49e38cc6b15410b7a2e43f820b5f7b70464aa283"},
	{"bv_n16", "b165f4d1307d6ab9883b76210cef01a6e14cc8c70d4bfb0c8b86b8f9d8500a09"},
	{"mul_n13", "57446ab8b87092c563ac7d7eb4ef9b1ac5ba207b174b98ed1dac41a2bd406841"},
	{"mul_n15_0", "3e51623a3e61ba20cae350f249574d009360e879d3275fd746c82290f7325295"},
	{"mul_n15_1", "37737636ae5e47764bb81d1b1dbf58a6c372ab5f53d070a73579222efe883a47"},
	{"mul_n15_2", "109228979d6fe75abea38851a7fc2177c6b5e9c5d8a0f6e7d0d388104f7738be"},
	{"mul_n15_3", "dca31cb25051e32443b71116b3af7919edd4d99816f325297806be787baee6b3"},
	{"mul_n25", "3917bca3b59e2304d93c133ba2c3f7848552d03da2c4e4e3d597d70fb8d40043"},
	{"qaoa_n6", "29c82e4c56948d5f0e8ff27e5937dd9cfdfcb65f2cb3f9a5fddf27aee2699741"},
	{"qaoa_n8", "fdd4498067bf006dec425d0861d2546fb9dc607e4b328db4bbc49e5605659729"},
	{"qaoa_n9", "ee7f74fd45f2974c18c6b6784d0427da53d70fe5e7d03425639b63c13ba14f4a"},
	{"qaoa_n11", "bb374cb0cb777814f266586cea0687ab56050f734ab4f2152ee1f660e3cb03f5"},
	{"qaoa_n13", "2a63d9c8d201a48abca9c6359fa1ded4d44828ac67854e80c872bc00eaf0989a"},
	{"qaoa_n15", "5d44a858f4feba2b142829ab9a5b82943cdc78d9797352addfaca3b3a1fc7ac8"},
	{"qft_n8", "7ad2eb0151244023c689eef116bafb32dcb20955fc0631d3188d164d57a4205b"},
	{"qft_n10", "a651d07f2551a7561df851046392dd7235a71a899d90c1b286a9fa525106bc6a"},
	{"qft_n12", "8f4eee73eae70ab8da67e5324ff1fe581c6ba910473bfd89267da6bfea3adaf9"},
	{"qft_n14", "ade4a61c7a0a4ccce8af779357d905f1133553f812603728e2ad6e03828ce9ee"},
	{"qft_n16", "b82d0f241b64b552878e87f61d2e6a276da4ec364da8ca67a28027f152098bee"},
	{"qft_n18", "3ddf4919333434f3c08508f0fd86607655976b8ddb83d1cea8bcf007d55306db"},
	{"qpe_n4", "9bb082b9e09732d7352f984e94db2559f7b2e2a9c9b8e4f21c1af7f720a1179b"},
	{"qpe_n6", "8c792c81b4bab59f10223ee3d10069254e900a2b885deeb4d416939e4af9e69a"},
	{"qpe_n9_0", "23d5587dac6407d09a31ba2fcb8a455c7ebc5caf902341505e5f9c7c9f629529"},
	{"qpe_n9_1", "1f198fb89265a077317958c1f86ab19aaac4e98780c392452dc6f97fcc6cb95d"},
	{"qpe_n11", "4e30f2a9000030652c69e107eddbcd049b8d892dfbcb98e2e192245f9af7a6bc"},
	{"qpe_n16", "fcd2e3ab6f41b328c83b5fefd14ce155d93f2354c9f6c3c1e6dbdb235eae5148"},
	{"qsc_n8", "4c843df58c526f5f33ba5d306592f5dc96d802336a583231222a2d3a3d3290bf"},
	{"qsc_n9", "16c5afad8a9aa8d7d7f9e7b00cad37d92dbad79f73f6851a03b0afce63b11859"},
	{"qsc_n10", "90d6a3ac7ea21c7f712f6c798a3fc92c814ba28130f11634d58379cbd2105e90"},
	{"qsc_n12", "cc07129d6932c844b13f2758488273b59fbba33760dcae0caa9c8d002fb05c04"},
	{"qsc_n15", "fc228aa8a8df9b5347c607e46947b97566682f780a40f3a95c069fa04c607a2f"},
	{"qsc_n16", "4f4f1e1d331770f1d3cdf7cf0460dc6f3b8cd485c7973eddfa326dd02f0e37ac"},
	{"qv_n10", "1494a17ac12c66ac4eca12b075b8c453bc331cf4530ce8461055b17ac683b692"},
	{"qv_n12", "80e772887ba8b08f3d9f11aa56c947113291c688a3f877dd3403991a1edb970d"},
	{"qv_n14", "c24a992fea21fac14bd4b0295543ea46610e9e7b393c1d94c2b1bc2319fd6f91"},
	{"qv_n16", "36e9d34832334a93225e3d71988a0fb499f37f384b5b0939b20b15f177976a7b"},
	{"qv_n18", "2ec9e8c176a19d7d8a55bc31e9510ba520197f5f99f5bba0a021c6337dd591ee"},
	{"qv_n20", "8278d7d7bb871dd703c1995710b78b97645a65237b5392d13ec9ac994d831cf0"},
}

func TestCatalogueNamesMatchBuiltCircuits(t *testing.T) {
	if len(catalogue) != len(suiteGolden) {
		t.Fatalf("catalogue has %d entries, want %d", len(catalogue), len(suiteGolden))
	}
	seen := map[string]bool{}
	for _, e := range catalogue {
		if seen[e.name] {
			t.Errorf("duplicate catalogue name %s", e.name)
		}
		seen[e.name] = true
		if got := e.build().Name; got != e.name {
			t.Errorf("entry %s builds a circuit named %s", e.name, got)
		}
	}
}

func TestSuiteMatchesGolden(t *testing.T) {
	suite := Suite(0)
	if len(suite) != len(suiteGolden) {
		t.Fatalf("suite has %d circuits, want %d", len(suite), len(suiteGolden))
	}
	for i, b := range suite {
		want := suiteGolden[i]
		if b.Circuit.Name != want[0] {
			t.Fatalf("suite[%d] is %s, want %s", i, b.Circuit.Name, want[0])
		}
		if d := b.Circuit.Digest(); d != want[1] {
			t.Errorf("%s digest %s, want %s", want[0], d, want[1])
		}
		if got := ByName(want[0]).Digest(); got != want[1] {
			t.Errorf("ByName(%s) digest %s, want %s", want[0], got, want[1])
		}
	}
}

func TestByNameReturnsIndependentCopies(t *testing.T) {
	const name = "qft_n8"
	want := ByName(name).Digest()
	c := ByName(name)
	c.Gates[0] = gate.New(gate.KindX, 0)
	c.Append(gate.New(gate.KindH, 1))
	if got := ByName(name).Digest(); got != want {
		t.Fatalf("mutating a returned circuit changed later lookups: %s, want %s", got, want)
	}
}

func TestByNameConcurrent(t *testing.T) {
	const workers = 16
	// A private entry, so the goroutines race on the first build even when
	// another test has already looked the name up.
	src := byName["qv_n10"]
	e := &entry{name: src.name, class: src.class, build: src.build}
	want := src.build().Digest()
	digests := make([]string, 2*workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			digests[2*i] = e.clone().Digest()
		}()
		go func() {
			defer wg.Done()
			digests[2*i+1] = ByName(src.name).Digest()
		}()
	}
	wg.Wait()
	for i, d := range digests {
		if d != want {
			t.Fatalf("lookup %d got digest %s, want %s", i, d, want)
		}
	}
}

func TestByNameAllocations(t *testing.T) {
	ByName("bv_n10") // first request builds the circuit
	// A repeat lookup is a Clone: the circuit header and its gate list.
	if n := testing.AllocsPerRun(100, func() { ByName("bv_n10") }); n > 2 {
		t.Fatalf("ByName allocates %v times per repeat call, want <= 2", n)
	}
}
