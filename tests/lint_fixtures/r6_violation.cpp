// R6 fixture: allocation bans apply only inside the marked hot region.
#include <functional>
#include <memory>
#include <vector>

void setup(std::vector<int>& v) {
  v.push_back(1);  // outside the region: legal
}

// ntco-lint: hotpath begin
void serve(std::vector<int>& v, std::map<int, int>& m) {
  int* p = new int(7);
  v.push_back(*p);
  auto s = std::make_shared<int>(3);
  std::function<void()> g;
  v.resize(9);
  m.try_emplace(1, 2);
  (void)s;
  (void)g;
}
// ntco-lint: hotpath end

void teardown(std::vector<int>& v) {
  v.push_back(2);  // after the region closes: legal again
}
